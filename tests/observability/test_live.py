"""Live event streaming: ordering guarantees, merge, bounded overhead."""

import io
import json

import pytest

from repro.errors import ObservabilityError
from repro.observability.live import (
    EVENT_SCHEMA,
    EventStream,
    open_event_stream,
)


def _events(buffer):
    return [json.loads(line) for line in buffer.getvalue().splitlines()]


class TestEventStream:
    def test_header_and_sequencing(self):
        buffer = io.StringIO()
        stream = EventStream([buffer], source="mod2")
        stream.emit("span_start", "measure", pid=1)
        stream.emit("span_finish", "measure", pid=1, duration_s=0.5)
        stream.finish()
        records = _events(buffer)
        assert records[0]["event"] == "stream_start"
        assert records[0]["schema"] == EVENT_SCHEMA
        assert records[-1]["event"] == "stream_finish"
        assert [r["seq"] for r in records] == list(range(len(records)))

    def test_timestamps_never_decrease(self):
        import time

        now = time.time()
        buffer = io.StringIO()
        stream = EventStream([buffer], source="x")
        stream.emit("a", "n", t=now + 100.0)
        stream.emit("b", "n", t=now + 50.0)  # worker clock skew: clamped up
        stream.emit("c", "n", t=now + 150.0)
        records = _events(buffer)
        times = [r["t"] for r in records]
        assert times == sorted(times)
        assert records[2]["t"] == now + 100.0  # clamped to its predecessor
        assert records[3]["t"] == now + 150.0

    def test_each_event_is_one_flushed_json_line(self):
        buffer = io.StringIO()
        stream = EventStream([buffer], source="x")
        stream.emit("a", "n", note="line\nbreak")
        for line in buffer.getvalue().splitlines():
            assert json.loads(line)

    def test_non_jsonable_fields_coerced(self):
        buffer = io.StringIO()
        stream = EventStream([buffer], source="x")
        record = stream.emit("a", "n", what=object())
        assert isinstance(record["what"], str)

    def test_writes_to_every_handle(self):
        one, two = io.StringIO(), io.StringIO()
        stream = EventStream([one, two], source="x")
        stream.emit("a", "n")
        assert one.getvalue() == two.getvalue()

    def test_needs_a_handle(self):
        with pytest.raises(ObservabilityError):
            EventStream([])

    def test_empty_event_type_rejected(self):
        stream = EventStream([io.StringIO()], source="x")
        with pytest.raises(ObservabilityError):
            stream.emit("", "n")


class TestMerge:
    """The parent replays sharded chunks' events as one timeline."""

    @staticmethod
    def _replay(stream, *chunks):
        """Record ``(started_unix, duration_s, pid)`` chunks as a sweep would."""
        from repro.observability.instruments import InstrumentRegistry
        from repro.runtime.executor import ShardContext, ShardRun
        from repro.runtime.sweeps import (
            _record_shards,
            _ShardResult,
            sweep_spec_for_design,
        )
        from repro.telemetry.spans import Span

        counted = InstrumentRegistry()
        counted.counter("repro.executor.shards").inc()
        runs = [
            ShardRun(
                context=ShardContext(index, len(chunks), index, 1, (0, 0, index)),
                pid=pid,
                started_unix=started,
                duration_s=duration,
                queue_wait_s=0.0,
                instruments=counted.snapshot(),
            )
            for index, (started, duration, pid) in enumerate(chunks)
        ]
        shards = [_ShardResult(metrics=(), engine="kernel") for _ in chunks]
        spec = sweep_spec_for_design("mod2", levels_db=(-40.0, -20.0))
        _record_shards(spec, shards, runs, Span("sweep"), stream)

    def test_worker_events_sorted_by_wall_clock(self):
        buffer = io.StringIO()
        stream = EventStream([buffer], source="sweep")
        # Shard 1 started and finished first: the replay follows the
        # chunks' wall clocks, not their chunk order.
        self._replay(stream, (10.5, 1.5, 1), (10.0, 1.0, 2))
        names = [
            (r["event"], r["name"])
            for r in _events(buffer)
            if r["event"] in ("span_start", "span_finish")
        ]
        assert names == [
            ("span_start", "shard:1"),
            ("span_start", "shard:0"),
            ("span_finish", "shard:1"),
            ("span_finish", "shard:0"),
        ]

    def test_merged_events_get_fresh_seq(self):
        buffer = io.StringIO()
        stream = EventStream([buffer], source="x")
        self._replay(stream, (1.0, 1.0, 7))
        records = _events(buffer)
        assert [r["seq"] for r in records] == [0, 1, 2, 3]
        assert records[-1]["event"] == "instruments"
        assert records[-1]["repro_executor_shards"] == 1.0


class TestOpenEventStream:
    def test_none_when_nothing_requested(self):
        assert open_event_stream(None, follow=False) is None

    def test_path_writes_file_and_closes(self, tmp_path):
        target = tmp_path / "events.jsonl"
        with open_event_stream(target, source="mod2") as stream:
            stream.emit("span_start", "measure")
        records = [json.loads(l) for l in target.read_text().splitlines()]
        assert records[0]["event"] == "stream_start"
        assert records[-1]["event"] == "stream_finish"

    def test_dash_means_stdout(self, capsys):
        stream = open_event_stream("-", source="mod2")
        stream.emit("a", "n")
        stream.close()
        out = capsys.readouterr().out
        assert '"stream_start"' in out

    def test_follow_means_stderr(self, capsys):
        stream = open_event_stream(None, follow=True, source="mod2")
        stream.emit("a", "n")
        stream.close()
        err = capsys.readouterr().err
        assert '"stream_start"' in err


class TestSessionIntegration:
    def test_session_spans_emit_live_events(self):
        from repro.telemetry.session import TelemetrySession

        buffer = io.StringIO()
        stream = EventStream([buffer], source="mod2")
        session = TelemetrySession("mod2", stream=stream)
        with session.span("measure", samples=64):
            with session.span("device"):
                pass
        kinds = [(r["event"], r["name"]) for r in _events(buffer)[1:]]
        assert kinds == [
            ("span_start", "measure"),
            ("span_start", "device"),
            ("span_finish", "device"),
            ("span_finish", "measure"),
        ]

    def test_session_without_stream_emits_nothing(self):
        from repro.telemetry.session import TelemetrySession

        session = TelemetrySession("mod2")
        with session.span("measure"):
            pass
        assert session.stream is None


class TestSweepIntegration:
    @pytest.fixture()
    def spec(self):
        from repro.runtime.sweeps import sweep_spec_for_design

        return sweep_spec_for_design(
            "mod2", n_samples=4096, levels_db=(-40.0, -20.0, -10.0)
        )

    def test_sharded_sweep_merges_one_ordered_timeline(self, spec):
        from repro.runtime import SweepExecutor
        from repro.runtime.sweeps import run_sweep
        from repro.telemetry.session import TelemetrySession

        buffer = io.StringIO()
        stream = EventStream([buffer], source=spec.design)
        session = TelemetrySession(spec.design, stream=stream)
        run_sweep(
            spec,
            executor=SweepExecutor(jobs=2, chunk_size=1),
            cache=None,
            telemetry=session,
        )
        stream.finish()
        records = _events(buffer)
        assert [r["seq"] for r in records] == list(range(len(records)))
        times = [r["t"] for r in records]
        assert times == sorted(times)
        starts = [r["name"] for r in records if r["event"] == "span_start"]
        assert starts.count("shard:0") == 1
        assert starts.count("shard:1") == 1
        assert starts.count("shard:2") == 1
        deltas = [r for r in records if r["event"] == "instruments"]
        assert len(deltas) == 3
        assert all("repro_executor_shards" in r for r in deltas)

    def test_event_count_bounded_by_shards_not_samples(self, spec):
        # The <5% overhead promise rests on this: events fire per span
        # and per shard, never per simulated sample.
        from repro.runtime import SweepExecutor
        from repro.runtime.sweeps import run_sweep
        from repro.telemetry.session import TelemetrySession

        buffer = io.StringIO()
        stream = EventStream([buffer], source=spec.design)
        session = TelemetrySession(spec.design, stream=stream)
        run_sweep(
            spec, executor=SweepExecutor(jobs=1), cache=None, telemetry=session
        )
        n_events = len(_events(buffer))
        n_samples = len(spec.levels_db) * spec.n_samples
        assert n_events <= 16
        assert n_events < n_samples / 100
