"""Benchmark regression gate: diff BENCH_telemetry.json vs a baseline.

``repro bench-gate`` is the CI counterpart of ``repro compare`` for
performance: it loads the merged benchmark telemetry document written
by the benchmark harness (:mod:`benchmarks.conftest`) and a committed
baseline (``baselines/bench.json``), then fails the build when

* a gated benchmark is missing from the telemetry document,
* a benchmark's wall time regressed past the tolerance (25 % by
  default), or
* a recorded speedup figure (vectorized engine vs the scalar loop)
  fell below the baseline's floor.

A measured figure that is not a finite number fails its row as a
missing one does; a baseline figure that is present but not a finite
number is refused, so a typo can never silently lift a floor.

The baseline intentionally stores generous wall times: CI machines are
slower and noisier than the workstation that recorded them, and the
gate exists to catch order-of-magnitude regressions (a vectorized path
silently falling back to the scalar loop), not 5 % scheduling jitter.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from repro.errors import MetricsError
from repro.findings import DiffStatus, Gate, finite_or_none, read_json_object
from repro.reporting.tables import Table

__all__ = [
    "BENCH_BASELINE_SCHEMA",
    "DEFAULT_TOLERANCE",
    "BenchGateReport",
    "BenchGateRow",
    "compare_bench_telemetry",
    "load_bench_baseline",
    "load_bench_telemetry",
    "run_bench_gate",
]

#: Schema identifier of the committed baseline document.
BENCH_BASELINE_SCHEMA = "repro.metrics/bench-baseline/v1"

#: Allowed fractional wall-time regression before the gate fails.
DEFAULT_TOLERANCE = 0.25


@dataclass(frozen=True)
class BenchGateRow:
    """One benchmark's verdict against the baseline.

    Attributes
    ----------
    benchmark:
        Benchmark name (the telemetry record key).
    wall_s:
        Measured wall time, or None when the record is missing.
    limit_s:
        Wall-time ceiling (baseline * (1 + tolerance)).
    speedup:
        Recorded vectorized-vs-scalar speedup, when the bench reports
        one.
    min_speedup:
        Baseline floor on that speedup, when gated.
    failures:
        Human-readable reasons this row fails the gate (empty = pass).
    """

    benchmark: str
    wall_s: float | None
    limit_s: float
    speedup: float | None = None
    min_speedup: float | None = None
    failures: tuple[str, ...] = ()

    @property
    def status(self) -> DiffStatus:
        """REGRESS when any check failed, else PASS."""
        return DiffStatus.REGRESS if self.failures else DiffStatus.PASS


class BenchGateReport(Gate[BenchGateRow]):
    """Full gate verdict over every baselined benchmark."""

    def __init__(
        self,
        rows: Iterable[BenchGateRow],
        tolerance: float,
        extra_benchmarks: Iterable[str] = (),
    ) -> None:
        super().__init__(rows)
        self.tolerance = tolerance
        self.extra_benchmarks: tuple[str, ...] = tuple(extra_benchmarks)

    @property
    def failures(self) -> list[str]:
        """Return every failure message, prefixed by its benchmark."""
        return [
            f"{row.benchmark}: {reason}"
            for row in self.rows
            for reason in row.failures
        ]

    def render_table(self) -> str:
        """Return the human-readable verdict table."""
        table = Table(
            f"benchmark gate (tolerance {self.tolerance:.0%})",
            ("benchmark", "wall", "limit", "speedup", "floor", "verdict"),
        )
        for row in self.rows:
            table.add_row(
                row.benchmark,
                "missing" if row.wall_s is None else f"{row.wall_s:.2f} s",
                f"{row.limit_s:.2f} s",
                "-" if row.speedup is None else f"{row.speedup:.1f}x",
                "-" if row.min_speedup is None else f"{row.min_speedup:.1f}x",
                "FAIL" if row.failures else "ok",
            )
        return table.render()

    def summary(self) -> str:
        """Return a one-line pass/fail summary."""
        n_fail = len(self.regressions)
        if n_fail == 0:
            return f"bench gate: {len(self.rows)} benchmark(s) within baseline"
        return (
            f"bench gate: {n_fail}/{len(self.rows)} benchmark(s) regressed: "
            + "; ".join(self.failures)
        )


def _baseline_figure(value: object, what: str) -> float | None:
    """Return a baseline figure; None when absent, refused when unusable."""
    if value is None:
        return None
    number = finite_or_none(value)
    if number is None:
        raise MetricsError(f"{what} must be a finite number, got {value!r}")
    return number


def compare_bench_telemetry(
    telemetry: Mapping[str, object],
    baseline: Mapping[str, object],
    tolerance: float | None = None,
) -> BenchGateReport:
    """Diff a telemetry document against the committed baseline.

    Parameters
    ----------
    telemetry:
        Parsed ``BENCH_telemetry.json`` document.
    baseline:
        Parsed ``baselines/bench.json`` document.
    tolerance:
        Fractional wall-time headroom; the baseline document's own
        ``tolerance`` (then :data:`DEFAULT_TOLERANCE`) when omitted.

    Raises
    ------
    MetricsError
        If either document is structurally invalid, or a tolerance or
        baseline figure is not a finite number.
    """
    gated = baseline.get("benchmarks")
    if not isinstance(gated, Mapping) or not gated:
        raise MetricsError(
            "bench baseline has no 'benchmarks' mapping; regenerate it "
            "from a healthy BENCH_telemetry.json"
        )
    tolerance = _baseline_figure(
        baseline.get("tolerance") if tolerance is None else tolerance, "tolerance"
    )
    if tolerance is None:
        tolerance = DEFAULT_TOLERANCE
    if tolerance < 0.0:
        raise MetricsError(f"tolerance must be non-negative, got {tolerance!r}")

    records: dict[str, Mapping[str, object]] = {}
    raw_records = telemetry.get("records")
    if isinstance(raw_records, list):
        for entry in raw_records:
            if isinstance(entry, Mapping) and isinstance(
                entry.get("benchmark"), str
            ):
                records[str(entry["benchmark"])] = entry

    rows = []
    for name in sorted(gated):
        spec = gated[name]
        if not isinstance(spec, Mapping):
            raise MetricsError(f"baseline entry for {name!r} is not a mapping")
        base_wall = finite_or_none(spec.get("wall_s"))
        if base_wall is None or base_wall <= 0.0:
            raise MetricsError(
                f"baseline entry for {name!r} needs a positive wall_s"
            )
        min_speedup = _baseline_figure(
            spec.get("min_speedup"), f"min_speedup of {name!r}"
        )
        limit = base_wall * (1.0 + tolerance)
        record = records.get(name)
        failures: list[str] = []
        wall = speedup = None
        if record is None:
            failures.append("benchmark missing from telemetry document")
        else:
            wall = finite_or_none(record.get("wall_s"))
            if wall is None:
                failures.append("record has no wall_s figure")
            elif wall > limit:
                failures.append(
                    f"wall time {wall:.2f} s exceeds limit {limit:.2f} s "
                    f"(baseline {base_wall:.2f} s + {tolerance:.0%})"
                )
            if min_speedup is not None:
                speedup = finite_or_none(record.get("speedup"))
                if speedup is None:
                    failures.append("record has no speedup figure")
                elif speedup < min_speedup:
                    failures.append(
                        f"speedup {speedup:.1f}x below floor {min_speedup:.1f}x"
                    )
        rows.append(
            BenchGateRow(
                benchmark=name,
                wall_s=wall,
                limit_s=limit,
                speedup=speedup,
                min_speedup=min_speedup,
                failures=tuple(failures),
            )
        )
    extra = tuple(sorted(set(records) - set(gated)))
    return BenchGateReport(
        rows=tuple(rows), tolerance=tolerance, extra_benchmarks=extra
    )


def load_bench_telemetry(path: str | Path) -> dict[str, object]:
    """Load and validate a ``BENCH_telemetry.json`` document."""
    return read_json_object(path, "bench telemetry", MetricsError)


def load_bench_baseline(path: str | Path) -> dict[str, object]:
    """Load and validate a committed ``baselines/bench.json`` document."""
    document = read_json_object(path, "bench baseline", MetricsError)
    schema = document.get("schema")
    if schema != BENCH_BASELINE_SCHEMA:
        raise MetricsError(
            f"bench baseline {path} has schema {schema!r}, "
            f"expected {BENCH_BASELINE_SCHEMA!r}"
        )
    return document


def run_bench_gate(
    telemetry_path: str | Path = "BENCH_telemetry.json",
    baseline_path: str | Path = "baselines/bench.json",
    tolerance: float | None = None,
) -> BenchGateReport:
    """Load both documents and return the gate report.

    Raises
    ------
    MetricsError
        If either file is missing or structurally invalid.
    """
    return compare_bench_telemetry(
        load_bench_telemetry(telemetry_path),
        load_bench_baseline(baseline_path),
        tolerance=tolerance,
    )
