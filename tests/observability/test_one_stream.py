"""One run, one stream: the tree and the profile are projections of it.

A ``--jobs 2`` report streams into a buffer; the span forest rebuilt
from the buffer alone by ``id``/``parent`` must equal the session's
own tree -- timed spans, the modulator's structural stage spans and
both forked ``shard:<i>`` spans -- and so must its profile.  A sweep
that dies on a terminal shard timeout still streams its finding.
"""

import io
import json
import os

import pytest

from repro.metrics.report import build_report
from repro.observability.live import EventStream
from repro.observability.profile import aggregate_profile
from repro.runtime.executor import SweepExecutor, SweepTimeoutError
from repro.runtime.sweeps import run_sweep, sweep_spec_for_design
from repro.telemetry.session import TelemetrySession
from repro.telemetry.spans import Span, jsonable


def _records(buffer):
    return [json.loads(line) for line in buffer.getvalue().splitlines()]


def _forest(records):
    """Rebuild a span forest from its ``span_finish`` records alone."""
    spans: dict[int, Span] = {}
    roots: list[Span] = []
    # A parent is attached, and so numbered, before any of its children.
    finished = [r for r in records if r["event"] == "span_finish"]
    for record in sorted(finished, key=lambda r: r["id"]):
        span = Span(record["name"], samples=record["samples"], **record["attrs"])
        span.id, span.parent = record["id"], record["parent"]
        span.pid, span.duration_s = record["pid"], record["duration_s"]
        spans[span.id] = span
        (roots if span.parent is None else spans[span.parent].children).append(span)
    return roots


def _shape(roots):
    return [
        (
            depth,
            span.id,
            span.name,
            span.parent,
            span.pid,
            span.samples,
            span.duration_s,
            jsonable(span.attrs),
        )
        for root in roots
        for depth, span in root.walk()
    ]


@pytest.fixture(scope="module")
def report_run():
    patch = pytest.MonkeyPatch()
    patch.setattr("repro.runtime.executor.os.cpu_count", lambda: 2)
    buffer = io.StringIO()
    stream = EventStream([buffer], source="modulator2")
    session = TelemetrySession("modulator2", stream=stream)
    try:
        build_report("modulator2", n_samples=1 << 14, jobs=2, session=session)
    finally:
        patch.undo()
    stream.finish()
    return session, _records(buffer)


class TestReportStream:
    def test_forest_rebuilt_from_the_stream_equals_the_tree(self, report_run):
        session, records = report_run
        assert _shape(_forest(records)) == _shape(session.roots)

    def test_profile_of_the_stream_equals_the_profile(self, report_run):
        session, records = report_run
        assert aggregate_profile(_forest(records)) == aggregate_profile(session.roots)

    def test_structural_and_shard_spans_are_in_it(self, report_run):
        session, records = report_run
        finished = {r["name"]: r for r in records if r["event"] == "span_finish"}
        for stage in ("int1", "int2", "quantizer", "dac"):
            assert finished[stage]["duration_s"] is None
            assert finished[stage]["samples"] == finished["device"]["samples"]
        sweep = finished["sweep"]
        for name in ("shard:0", "shard:1"):
            shard = finished[name]
            assert shard["parent"] == sweep["id"]
            assert shard["pid"] != os.getpid()
            assert shard["samples"] > 0
            assert shard["attrs"]["engine"] == "kernel"

    def test_each_shard_streams_its_counters(self, report_run):
        _, records = report_run
        ids = {
            r["name"]: r["id"] for r in records if r["event"] == "span_finish"
        }
        counted = {
            r["name"]: r for r in records if r["event"] == "instruments"
        }
        assert sorted(counted) == ["shard:0", "shard:1"]
        for name, record in counted.items():
            assert record["id"] == ids[name]
            assert record["repro.executor.shards"] == 1.0

    def test_probes_stream_when_the_rules_run(self, report_run):
        session, records = report_run
        probes = [r["name"] for r in records if r["event"] == "probe"]
        assert probes == list(session.probes)


def test_terminal_timeout_streams_its_finding(monkeypatch):
    monkeypatch.setattr("repro.runtime.executor.os.cpu_count", lambda: 2)
    buffer = io.StringIO()
    stream = EventStream([buffer], source="modulator2")
    session = TelemetrySession("modulator2", stream=stream)
    executor = SweepExecutor(jobs=2, chunk_size=1, timeout_s=1e-6)
    spec = sweep_spec_for_design("modulator2", n_samples=1 << 14, levels_db=(-40.0, -20.0))
    with pytest.raises(SweepTimeoutError):
        run_sweep(spec, executor=executor, telemetry=session)
    findings = [r for r in _records(buffer) if r["event"] == "finding"]
    assert [(f["name"], f["severity"], f["source"]) for f in findings] == [
        (e.rule, e.severity.name, e.source) for e in executor.events
    ]
    assert findings[-1]["name"] == "EXEC001"
    finished = [r["name"] for r in _records(buffer) if r["event"] == "span_finish"]
    assert finished == ["sweep"]
