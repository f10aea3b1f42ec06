"""Stats documents and the snapshot diff gate."""

import json

import pytest

from repro.errors import ObservabilityError
from repro.findings import DiffStatus
from repro.observability.instruments import InstrumentRegistry
from repro.observability.stats import (
    GATED_COUNTERS,
    STATS_SCHEMA,
    diff_snapshots,
    load_stats_json,
    write_stats_json,
)


def _snapshot(**counters):
    registry = InstrumentRegistry()
    for name, entries in counters.items():
        for labels, value in entries:
            registry.counter(name.replace("__", ".")).inc(value, **labels)
    return registry.snapshot()


def _single(name, value, **labels):
    registry = InstrumentRegistry()
    registry.counter(name).inc(value, **labels)
    return registry.snapshot()


class TestVerdicts:
    def test_unchanged_is_pass(self):
        snapshot = _single("repro.cache.hits", 3.0, kind="sweep")
        report = diff_snapshots(snapshot, snapshot)
        (diff,) = report.rows
        assert diff.status is DiffStatus.PASS
        assert report.exit_code() == 0

    def test_ungated_change_is_info(self):
        report = diff_snapshots(
            _single("repro.cache.hits", 5.0), _single("repro.cache.hits", 3.0)
        )
        (diff,) = report.rows
        assert diff.status is DiffStatus.INFO
        assert report.exit_code(strict=True) == 0

    def test_gated_regress_counters_fail(self):
        for name in ("repro.executor.timeouts", "repro.cache.corruption"):
            report = diff_snapshots(_single(name, 2.0), _single(name, 1.0))
            (diff,) = report.rows
            assert diff.status is DiffStatus.REGRESS
            assert report.exit_code() == 1
            assert "REGRESS" in report.summary()

    def test_gated_warn_counters_warn(self):
        for name in (
            "repro.executor.retries",
            "repro.single.fallbacks",
            "repro.batch.refusals",
        ):
            assert GATED_COUNTERS[name] is DiffStatus.WARN
            report = diff_snapshots(_single(name, 1.0), _single(name, 0.0))
            (diff,) = report.rows
            assert diff.status is DiffStatus.WARN
            assert report.exit_code() == 0
            assert report.exit_code(strict=True) == 1

    def test_gated_counter_decreasing_is_info(self):
        report = diff_snapshots(
            _single("repro.executor.timeouts", 1.0),
            _single("repro.executor.timeouts", 2.0),
        )
        (diff,) = report.rows
        assert diff.status is DiffStatus.INFO

    def test_new_series_warns_unless_gated(self):
        empty = InstrumentRegistry().snapshot()
        report = diff_snapshots(_single("repro.cache.hits", 1.0), empty)
        (diff,) = report.rows
        assert diff.status is DiffStatus.WARN
        assert "NEW" in diff.note

    def test_new_gated_series_uses_gate_status(self):
        empty = InstrumentRegistry().snapshot()
        report = diff_snapshots(_single("repro.executor.timeouts", 1.0), empty)
        (diff,) = report.rows
        assert diff.status is DiffStatus.REGRESS

    def test_missing_series_warns(self):
        empty = InstrumentRegistry().snapshot()
        report = diff_snapshots(empty, _single("repro.cache.hits", 1.0))
        (diff,) = report.rows
        assert diff.status is DiffStatus.WARN
        assert "MISSING" in diff.note

    def test_histograms_compare_by_count(self):
        a = InstrumentRegistry()
        a.histogram("repro.test.latency", buckets=(1.0,)).observe(0.5)
        b = InstrumentRegistry()
        b.histogram("repro.test.latency", buckets=(1.0,)).observe(0.5)
        b.histogram("repro.test.latency", buckets=(1.0,)).observe(0.5)
        report = diff_snapshots(a.snapshot(), b.snapshot())
        (diff,) = report.rows
        assert diff.current == 1.0 and diff.baseline == 2.0

    def test_render_table_includes_verdicts(self):
        report = diff_snapshots(
            _single("repro.executor.timeouts", 1.0),
            _single("repro.executor.timeouts", 0.0),
        )
        text = report.render_table()
        assert "repro.executor.timeouts" in text
        assert "REGRESS" in text

    def test_empty_comparison_renders_placeholder(self):
        empty = InstrumentRegistry().snapshot()
        assert "no instruments" in diff_snapshots(empty, empty).render_table()


class TestDocuments:
    def test_write_load_roundtrip(self, tmp_path):
        registry = InstrumentRegistry()
        registry.counter("repro.cache.hits").inc(kind="sweep")
        path = write_stats_json(
            tmp_path / "stats.json",
            registry.snapshot(),
            design="modulator2",
            config={"jobs": 2},
        )
        document = json.loads(path.read_text())
        assert document["schema"] == STATS_SCHEMA
        assert document["design"] == "modulator2"
        assert document["config"] == {"jobs": 2}
        assert "git_sha" in document["provenance"]
        assert load_stats_json(path) == registry.snapshot()

    def test_load_accepts_bare_snapshot(self, tmp_path):
        snapshot = _single("repro.cache.hits", 1.0)
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(snapshot))
        assert load_stats_json(path) == snapshot

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ObservabilityError):
            load_stats_json(tmp_path / "absent.json")

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps({"schema": "other/thing"}))
        with pytest.raises(ObservabilityError):
            load_stats_json(path)

    def test_load_rejects_non_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ObservabilityError):
            load_stats_json(path)


class TestUnreadableValues:
    @staticmethod
    def _with_timeouts(value):
        snapshot = json.loads(json.dumps(_single("repro.executor.timeouts", 0.0)))
        snapshot["instruments"]["repro.executor.timeouts"]["series"][0]["value"] = value
        return snapshot

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), "1", None, True])
    def test_series_value_that_is_not_a_finite_number_is_refused(self, value):
        with pytest.raises(ObservabilityError, match=r"repro\.executor\.timeouts"):
            diff_snapshots(self._with_timeouts(value), self._with_timeouts(0.0))

    def test_cli_refuses_nan_timeouts_with_exit_two(self, tmp_path, capsys):
        from repro.cli import main

        current = tmp_path / "current.json"
        baseline = tmp_path / "baseline.json"
        current.write_text(json.dumps(self._with_timeouts(float("nan"))))
        baseline.write_text(json.dumps(self._with_timeouts(0.0)))
        assert main(["stats", "--diff", str(current), str(baseline)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "repro.executor.timeouts" in captured.err
