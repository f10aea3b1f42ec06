"""The one gate and the pieces every gating verb shares.

:class:`repro.findings.Gate` (partitions, worst-first order, exit
rule), :meth:`Direction.worse`, :func:`finite_or_none`,
:func:`read_json_object`, and the benchmark gate's extractor
:func:`compare_bench_telemetry`, which the CLI tests reach only through
``main``.
"""

import json
from dataclasses import dataclass

import pytest

from repro.cli import main
from repro.errors import MetricsError
from repro.findings import (
    DiffStatus,
    Gate,
    Report,
    Severity,
    finite_or_none,
    read_json_object,
)
from repro.metrics.benchgate import DEFAULT_TOLERANCE, compare_bench_telemetry
from repro.metrics.records import Direction


@dataclass(frozen=True)
class Row:
    name: str
    status: DiffStatus


@dataclass(frozen=True)
class Finding:
    rule: str
    severity: Severity
    message: str = ""


def _rows(*statuses):
    return [Row(f"r{index}", status) for index, status in enumerate(statuses)]


class TestGate:
    def test_worst_first_order_is_stable(self):
        gate = Gate(
            _rows(
                DiffStatus.PASS,
                DiffStatus.REGRESS,
                DiffStatus.INFO,
                DiffStatus.WARN,
                DiffStatus.REGRESS,
                DiffStatus.PASS,
            )
        )
        assert [row.name for row in gate.ordered()] == [
            "r1", "r4", "r3", "r0", "r5", "r2"
        ]
        assert [row.name for row in gate.rows] == [f"r{i}" for i in range(6)]

    def test_partitions(self):
        gate = Gate(_rows(DiffStatus.WARN, DiffStatus.REGRESS, DiffStatus.WARN))
        assert [row.name for row in gate.regressions] == ["r1"]
        assert [row.name for row in gate.warnings] == ["r0", "r2"]
        assert not gate.ok

    @pytest.mark.parametrize(
        "statuses, notes, loose, strict",
        [
            ((), (), 0, 0),
            ((DiffStatus.PASS, DiffStatus.INFO), (), 0, 0),
            ((DiffStatus.WARN,), (), 0, 1),
            ((DiffStatus.REGRESS,), (), 1, 1),
            ((DiffStatus.PASS,), ("config mismatch",), 0, 1),
            ((), ("design mismatch",), 0, 1),
        ],
    )
    def test_exit_rule(self, statuses, notes, loose, strict):
        gate = Gate(_rows(*statuses), notes)
        assert gate.exit_code() == loose
        assert gate.exit_code(strict=True) == strict

    def test_report_reads_verdicts_off_severities(self):
        report = Report(
            "subject",
            [
                Finding("A1", Severity.INFO),
                Finding("A2", Severity.ERROR),
                Finding("A3", Severity.WARNING),
            ],
        )
        assert [f.rule for f in report.regressions] == ["A2"]
        assert [f.rule for f in report.warnings] == ["A3"]
        assert [f.rule for f in report.ordered()] == ["A2", "A3", "A1"]
        assert report.exit_code() == 1
        assert report.summary() == (
            "CHECK FAIL: subject -- 1 error(s), 1 warning(s), 3 total"
        )

    def test_warning_only_report_gates_under_strict(self):
        report = Report("subject", [Finding("A1", Severity.WARNING)])
        assert report.ok
        assert (report.exit_code(), report.exit_code(strict=True)) == (0, 1)


class TestDirectionWorse:
    @pytest.mark.parametrize(
        "direction, worse_at_minus, worse_at_plus",
        [
            (Direction.HIGHER, True, False),
            (Direction.LOWER, False, True),
            (Direction.TARGET, True, True),
        ],
    )
    def test_past_the_bound(self, direction, worse_at_minus, worse_at_plus):
        assert direction.worse(-1.5, 1.0) is worse_at_minus
        assert direction.worse(1.5, 1.0) is worse_at_plus

    @pytest.mark.parametrize("direction", list(Direction))
    @pytest.mark.parametrize("delta", [-1.0, 1.0, 0.0, -0.5, 0.5])
    def test_at_or_inside_the_bound_is_never_worse(self, direction, delta):
        assert direction.worse(delta, 1.0) is False


class TestFiniteOrNone:
    @pytest.mark.parametrize(
        "value, expected",
        [(3, 3.0), (2.5, 2.5), (-1e-3, -1e-3), (0, 0.0)],
    )
    def test_finite_numbers_read_as_floats(self, value, expected):
        result = finite_or_none(value)
        assert result == expected and type(result) is float

    @pytest.mark.parametrize(
        "value",
        [None, True, False, "1", "nan", [1.0], {"v": 1},
         float("nan"), float("inf"), float("-inf")],
    )
    def test_anything_else_reads_as_none(self, value):
        assert finite_or_none(value) is None


class TestReadJsonObject:
    def test_reads_an_object(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text('{"a": 1}')
        assert read_json_object(path, "thing", MetricsError) == {"a": 1}

    def test_missing_file(self, tmp_path):
        path = tmp_path / "nope.json"
        with pytest.raises(MetricsError) as info:
            read_json_object(path, "thing", MetricsError)
        assert str(info.value) == f"thing not found: {path}"

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(MetricsError, match=r"^cannot read thing .*bad\.json: "):
            read_json_object(path, "thing", MetricsError)

    @pytest.mark.parametrize("payload", ["[1, 2]", "3", '"text"', "null"])
    def test_non_object(self, tmp_path, payload):
        path = tmp_path / "list.json"
        path.write_text(payload)
        with pytest.raises(MetricsError) as info:
            read_json_object(path, "thing", MetricsError)
        assert str(info.value) == f"thing {path} is not a JSON object"


def _telemetry(*records):
    return {"records": list(records)}


def _baseline(tolerance=None, **benchmarks):
    document = {
        "schema": "repro.metrics/bench-baseline/v1",
        "benchmarks": benchmarks,
    }
    if tolerance is not None:
        document["tolerance"] = tolerance
    return document


BASE = {"a": {"wall_s": 1.0}, "b": {"wall_s": 2.0, "min_speedup": 5.0}}
CLEAN = (
    {"benchmark": "a", "wall_s": 0.9},
    {"benchmark": "b", "wall_s": 1.5, "speedup": 9.0},
)


def _row(report, name):
    return next(row for row in report.rows if row.benchmark == name)


class TestCompareBenchTelemetry:
    def test_clean_run_passes(self):
        report = compare_bench_telemetry(_telemetry(*CLEAN), _baseline(**BASE))
        assert report.ok and report.exit_code() == 0
        assert [row.status for row in report.rows] == [DiffStatus.PASS] * 2

    def test_missing_record_fails_its_row(self):
        report = compare_bench_telemetry(_telemetry(CLEAN[1]), _baseline(**BASE))
        row = _row(report, "a")
        assert row.status is DiffStatus.REGRESS
        assert row.failures == ("benchmark missing from telemetry document",)
        assert row.wall_s is None
        assert report.exit_code() == 1

    def test_missing_speedup_figure_fails_its_row(self):
        report = compare_bench_telemetry(
            _telemetry(CLEAN[0], {"benchmark": "b", "wall_s": 1.5}),
            _baseline(**BASE),
        )
        assert _row(report, "b").failures == ("record has no speedup figure",)
        assert [row.benchmark for row in report.regressions] == ["b"]

    def test_speedup_below_floor_fails_its_row(self):
        report = compare_bench_telemetry(
            _telemetry(CLEAN[0], {"benchmark": "b", "wall_s": 1.5, "speedup": 3.0}),
            _baseline(**BASE),
        )
        assert _row(report, "b").failures == ("speedup 3.0x below floor 5.0x",)

    def test_tolerance_argument_beats_the_document(self):
        report = compare_bench_telemetry(
            _telemetry(*CLEAN), _baseline(tolerance=0.1, **BASE), tolerance=0.5
        )
        assert report.tolerance == 0.5
        assert _row(report, "a").limit_s == pytest.approx(1.5)

    def test_document_tolerance_beats_the_default(self):
        report = compare_bench_telemetry(
            _telemetry(*CLEAN), _baseline(tolerance=0.1, **BASE)
        )
        assert report.tolerance == 0.1
        assert _row(report, "a").limit_s == pytest.approx(1.1)

    def test_default_tolerance(self):
        report = compare_bench_telemetry(_telemetry(*CLEAN), _baseline(**BASE))
        assert report.tolerance == DEFAULT_TOLERANCE == 0.25
        assert _row(report, "b").limit_s == pytest.approx(2.5)

    def test_extra_benchmarks_are_listed_not_gated(self):
        report = compare_bench_telemetry(
            _telemetry(
                *CLEAN,
                {"benchmark": "z", "wall_s": 99.0},
                {"benchmark": "y", "wall_s": 99.0},
            ),
            _baseline(**BASE),
        )
        assert report.extra_benchmarks == ("y", "z")
        assert [row.benchmark for row in report.rows] == ["a", "b"]
        assert report.ok

    @pytest.mark.parametrize(
        "record, failure",
        [
            ({"benchmark": "a", "wall_s": float("nan")}, "record has no wall_s figure"),
            ({"benchmark": "a", "wall_s": float("inf")}, "record has no wall_s figure"),
            ({"benchmark": "a", "wall_s": "0.9"}, "record has no wall_s figure"),
        ],
    )
    def test_unreadable_wall_time_fails_like_a_missing_one(self, record, failure):
        report = compare_bench_telemetry(
            _telemetry(record, CLEAN[1]), _baseline(**BASE)
        )
        assert _row(report, "a").failures == (failure,)
        assert report.exit_code() == 1

    def test_non_finite_speedup_fails_like_a_missing_one(self):
        report = compare_bench_telemetry(
            _telemetry(
                CLEAN[0], {"benchmark": "b", "wall_s": 1.5, "speedup": float("nan")}
            ),
            _baseline(**BASE),
        )
        assert _row(report, "b").failures == ("record has no speedup figure",)
        assert report.exit_code() == 1

    @pytest.mark.parametrize(
        "baseline, tolerance, match",
        [
            (_baseline(a={"wall_s": float("nan")}), None, "positive wall_s"),
            (_baseline(**BASE), float("nan"), "tolerance must be a finite number"),
            (
                _baseline(tolerance=float("nan"), **BASE),
                None,
                "tolerance must be a finite number",
            ),
            (_baseline(tolerance="0.3", **BASE), None, "got '0.3'"),
            (
                _baseline(a={"wall_s": 1.0}, b={"wall_s": 2.0, "min_speedup": "6"}),
                None,
                "min_speedup of 'b' must be a finite number, got '6'",
            ),
            (_baseline(**BASE), -0.1, "must be non-negative"),
        ],
    )
    def test_unusable_baseline_figures_are_refused(self, baseline, tolerance, match):
        with pytest.raises(MetricsError, match=match):
            compare_bench_telemetry(_telemetry(*CLEAN), baseline, tolerance=tolerance)


class TestBenchGateCli:
    @staticmethod
    def _run(tmp_path, records, baseline, *extra):
        telemetry = tmp_path / "telemetry.json"
        telemetry.write_text(json.dumps(_telemetry(*records)))
        base = tmp_path / "baseline.json"
        base.write_text(json.dumps(baseline))
        return main(
            ["bench-gate", "--telemetry", str(telemetry), "--baseline", str(base),
             "--no-ledger", *extra]
        )

    def test_nan_wall_time_exits_one(self, tmp_path, capsys):
        records = ({"benchmark": "a", "wall_s": float("nan")}, CLEAN[1])
        assert self._run(tmp_path, records, _baseline(**BASE)) == 1
        assert "a: record has no wall_s figure" in capsys.readouterr().out

    def test_string_floor_exits_two(self, tmp_path, capsys):
        baseline = _baseline(a={"wall_s": 1.0}, b={"wall_s": 2.0, "min_speedup": "6"})
        assert self._run(tmp_path, CLEAN, baseline) == 2
        assert "min_speedup of 'b'" in capsys.readouterr().err

    def test_nan_tolerance_option_exits_two(self, tmp_path, capsys):
        assert self._run(tmp_path, CLEAN, _baseline(**BASE), "--tolerance", "nan") == 2
        assert "tolerance must be a finite number" in capsys.readouterr().err
