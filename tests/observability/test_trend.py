"""Cross-run trend analytics: series extraction, drift gating, rendering."""

import json

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.findings import DiffStatus
from repro.metrics.records import Direction
from repro.observability.ledger import RunLedger
from repro.observability.trend import (
    MetricSeries,
    TREND_SCHEMA,
    analyze_ledger,
    analyze_series,
    collect_series,
    render_history,
    sparkline,
)

PROV = {
    "git_sha": "cafe0001",
    "git_dirty": False,
    "timestamp": "2026-08-08T00:00:00+00:00",
    "hostname": "rig",
}


def _sweep_ledger(tmp_path, values):
    ledger = RunLedger(tmp_path)
    for index, value in enumerate(values):
        ledger.append(
            "sweep",
            {"dynamic_range_db": value, "run": index},
            design="mod2",
            provenance=dict(PROV, timestamp=f"2026-08-{index + 1:02d}T00:00:00+00:00"),
        )
    return ledger


def _series(values, direction=Direction.HIGHER):
    n = len(values)
    return MetricSeries(
        key="mod2:metric",
        design="mod2",
        unit="dB",
        direction=direction,
        values=tuple(values),
        timestamps=tuple(f"t{i}" for i in range(n)),
        shas=tuple("sha" for _ in range(n)),
    )


class TestCollectSeries:
    def test_report_entries_become_gated_metric_series(self, tmp_path):
        ledger = RunLedger(tmp_path)
        for value in (57.0, 57.2):
            ledger.append(
                "report",
                {
                    "metrics": [
                        {
                            "name": "snr_db",
                            "value": value,
                            "unit": "dB",
                            "direction": "higher",
                            "gate": True,
                        },
                        {
                            "name": "ungated",
                            "value": 1.0,
                            "gate": False,
                        },
                    ]
                },
                design="mod2",
                provenance=PROV,
            )
        series = collect_series(ledger)
        assert [s.key for s in series] == ["mod2:snr_db"]
        assert series[0].values == (57.0, 57.2)
        assert series[0].direction is Direction.HIGHER

    def test_bench_entries_become_wall_time_series(self, tmp_path):
        ledger = RunLedger(tmp_path)
        for wall in (1.0, 1.1):
            ledger.append(
                "bench",
                {"benchmark": "test_fig7", "wall_s": wall},
                provenance=PROV,
            )
        series = collect_series(ledger)
        assert [s.key for s in series] == ["bench:test_fig7.wall_s"]
        assert series[0].direction is Direction.LOWER
        # Bench series belong to no design: a design filter drops them.
        assert collect_series(ledger, design="mod2") == []

    def test_sweep_entries_use_dynamic_range(self, tmp_path):
        ledger = _sweep_ledger(tmp_path, [60.0, 60.5])
        series = collect_series(ledger, design="mod2")
        assert [s.key for s in series] == ["mod2:sweep.dynamic_range_db"]
        assert series[0].unit == "dB"


class TestAnalyzeSeries:
    def test_short_history_is_info(self):
        finding = analyze_series(_series([1.0, 2.0, 3.0, 4.0]))
        assert finding.status is DiffStatus.INFO

    def test_stable_series_passes(self):
        finding = analyze_series(_series([57.0, 57.1, 56.9, 57.0, 57.05, 57.0]))
        assert finding.status is DiffStatus.PASS

    def test_sustained_drop_regresses_higher_is_better(self):
        # 8 stable runs, then a sustained 5 dB collapse over the last 3:
        # far beyond 4x the 1%-of-median scale floor.
        values = [57.0 + 0.02 * i for i in range(8)] + [52.0, 51.5, 51.0]
        finding = analyze_series(_series(values))
        assert finding.status is DiffStatus.REGRESS
        assert finding.drift is not None and finding.drift < 0

    def test_single_bad_run_only_warns(self):
        values = [57.0 + 0.02 * i for i in range(8)] + [52.0]
        finding = analyze_series(_series(values))
        assert finding.status is DiffStatus.WARN

    def test_improvement_is_not_drift_higher_is_better(self):
        values = [57.0] * 8 + [63.0, 63.5, 64.0]
        finding = analyze_series(_series(values))
        assert finding.status is DiffStatus.PASS

    def test_sustained_rise_regresses_lower_is_better(self):
        values = [1.0] * 8 + [2.0, 2.1, 2.2]
        finding = analyze_series(_series(values, direction=Direction.LOWER))
        assert finding.status is DiffStatus.REGRESS

    def test_target_direction_flags_both_sides(self):
        up = [0.0] * 8 + [1.0, 1.0, 1.0]
        down = [0.0] * 8 + [-1.0, -1.0, -1.0]
        for values in (up, down):
            finding = analyze_series(_series(values, direction=Direction.TARGET))
            assert finding.status is DiffStatus.REGRESS

    def test_window_bounds_the_reference(self):
        # Ancient bad history outside the window must not dilute the
        # reference: only the last `window` pre-tail runs count.
        values = [10.0] * 50 + [57.0] * 10 + [57.0, 57.0, 57.0]
        finding = analyze_series(_series(values), window=10)
        assert finding.status is DiffStatus.PASS
        assert finding.reference == 57.0


class TestAnalyzeLedger:
    def test_synthetic_three_run_drift_exits_nonzero(self, tmp_path):
        values = [57.0 + 0.01 * i for i in range(8)] + [50.0, 49.5, 49.0]
        report = analyze_ledger(_sweep_ledger(tmp_path, values))
        assert [f.status for f in report.rows] == [DiffStatus.REGRESS]
        assert report.exit_code(strict=False) == 1
        assert report.exit_code(strict=True) == 1
        assert "REGRESS" in report.summary()

    def test_stable_ledger_exits_zero(self, tmp_path):
        values = [57.0 + 0.01 * (i % 3) for i in range(10)]
        report = analyze_ledger(_sweep_ledger(tmp_path, values))
        assert report.exit_code(strict=True) == 0
        assert "PASS" in report.summary()

    def test_warning_needs_strict_to_gate(self, tmp_path):
        values = [57.0 + 0.01 * i for i in range(9)] + [50.0]
        report = analyze_ledger(_sweep_ledger(tmp_path, values))
        assert [f.status for f in report.rows] == [DiffStatus.WARN]
        assert report.exit_code(strict=False) == 0
        assert report.exit_code(strict=True) == 1

    def test_empty_ledger_renders_and_passes(self, tmp_path):
        report = analyze_ledger(RunLedger(tmp_path))
        assert report.exit_code(strict=True) == 0
        assert "ledger is empty" in report.render_table()

    def test_report_table_orders_worst_first(self, tmp_path):
        ledger = _sweep_ledger(tmp_path, [57.0] * 8 + [50.0, 49.5, 49.0])
        # A stable bench series alongside the regressing sweep series;
        # identical records dedupe, so vary a run index.
        for index in range(8):
            ledger.append(
                "bench",
                {"benchmark": "b", "wall_s": 1.0, "run": index},
                provenance=PROV,
            )
        report = analyze_ledger(ledger)
        table = report.render_table()
        first_data_row = [
            line for line in table.splitlines() if "mod2" in line or "bench" in line
        ][0]
        assert "mod2:sweep.dynamic_range_db" in first_data_row

    def test_json_document(self, tmp_path):
        report = analyze_ledger(_sweep_ledger(tmp_path, [57.0] * 6))
        target = report.write_json(tmp_path / "trend.json")
        document = json.loads(target.read_text())
        assert document["schema"] == TREND_SCHEMA
        assert document["window"] == report.window
        assert len(document["findings"]) == 1
        assert document["findings"][0]["status"] == "PASS"


class TestRefusals:
    @pytest.mark.parametrize(
        "knobs",
        [
            {"window": 0},
            {"window": -3},
            {"sustain": 0},
            {"threshold": -1.0},
            {"threshold": 0.0},
            {"threshold": float("nan")},
            {"threshold": float("inf")},
        ],
    )
    def test_degenerate_options_are_refused(self, tmp_path, knobs):
        ledger = _sweep_ledger(tmp_path, [57.0] * 10)
        with pytest.raises(ConfigurationError):
            analyze_ledger(ledger, **knobs)

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--sustain", "0"),
            ("--window", "0"),
            ("--window", "-3"),
            ("--threshold", "-1"),
            ("--threshold", "nan"),
        ],
    )
    def test_cli_exits_two_on_degenerate_options(self, tmp_path, capsys, flag, value):
        _sweep_ledger(tmp_path, [57.0 + 0.01 * (i % 3) for i in range(10)])
        assert main(["trend", "--ledger-dir", str(tmp_path), flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: trend needs")

    def test_non_finite_points_are_dropped(self, tmp_path):
        ledger = _sweep_ledger(tmp_path, [57.0, float("nan"), 57.1, float("inf")])
        (series,) = collect_series(ledger)
        assert series.values == (57.0, 57.1)


class TestRendering:
    def test_sparkline_shape(self):
        line = sparkline([0.0, 1.0, 2.0, 3.0])
        assert len(line) == 4
        assert line[0] == "▁"
        assert line[-1] == "█"

    def test_sparkline_flat_and_empty(self):
        assert sparkline([]) == "-"
        flat = sparkline([5.0, 5.0, 5.0])
        assert len(set(flat)) == 1

    def test_sparkline_truncates_to_width(self):
        assert len(sparkline(list(range(100)), width=16)) == 16

    def test_render_history_shows_metrics_and_entries(self, tmp_path):
        ledger = _sweep_ledger(tmp_path, [60.0, 61.0, 62.0])
        text = render_history(ledger, "mod2")
        assert "history: mod2" in text
        assert "sweep.dynamic_range_db" in text
        assert "cafe0001" in text
        assert "rig" in text

    def test_render_history_empty_design(self, tmp_path):
        text = render_history(RunLedger(tmp_path), "nothing")
        assert "no ledger history" in text
        assert "no entries" in text
