"""Manifest comparison: the regression gate behind ``repro compare``.

Diffs a fresh run manifest against a committed golden baseline *and*
against the paper's published values, metric by metric, applying each
metric's direction and tolerance:

* drift past tolerance in the bad direction -> **REGRESS** (exit 1);
* drift past tolerance in the good direction -> **WARN** (suspicious:
  the baseline is stale or the measurement changed);
* a value outside the paper's acceptance band -> **WARN**;
* metrics present on only one side -> **WARN** (``NEW``/``MISSING``);
* ungated metrics (wall time, throughput) -> **INFO**, never failing.

``--strict`` promotes warnings to failures, the posture CI runs with.
The exit rule is the shared :class:`~repro.findings.Gate`'s.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.findings import DiffStatus, Gate
from repro.metrics.manifest import RunManifest
from repro.metrics.records import MetricRecord
from repro.reporting.tables import render_table

__all__ = ["MetricDiff", "CompareReport", "compare_manifests"]


@dataclass(frozen=True)
class MetricDiff:
    """One metric's baseline diff.

    Attributes
    ----------
    name:
        Metric name.
    unit:
        Display unit.
    current:
        The fresh run's value (None when only the baseline has it).
    baseline:
        The golden value (None when the metric is new).
    delta:
        ``current - baseline`` when both sides exist.
    tolerance:
        The gate half-width applied, if any.
    status:
        The verdict.
    note:
        Human explanation of the verdict.
    """

    name: str
    unit: str
    current: float | None
    baseline: float | None
    delta: float | None
    tolerance: float | None
    status: DiffStatus
    note: str


def _diff_one(current: MetricRecord, baseline: MetricRecord) -> MetricDiff:
    """Diff a metric present in both manifests."""
    delta = current.value - baseline.value
    tolerance = current.tolerance

    def diff(status: DiffStatus, note: str) -> MetricDiff:
        return MetricDiff(
            name=current.name,
            unit=current.unit,
            current=current.value,
            baseline=baseline.value,
            delta=delta,
            tolerance=tolerance,
            status=status,
            note=note,
        )

    if not current.gate:
        return diff(DiffStatus.INFO, "informational; never gated")
    if tolerance is None:
        return diff(DiffStatus.INFO, "no baseline tolerance declared")

    if current.direction.worse(delta, tolerance):
        return diff(
            DiffStatus.REGRESS,
            f"moved {delta:+.3g} {current.unit} against a "
            f"+/-{tolerance:g} {current.unit} gate",
        )

    # Paper check only matters once the baseline gate is satisfied (a
    # regression already fails harder than a paper mismatch warns).
    if current.matches_paper is False:
        assert current.paper_value is not None  # matches_paper not None
        return diff(
            DiffStatus.WARN,
            f"outside the paper's band {current.paper_value:g}"
            f"+/-{current.paper_tolerance:g} {current.unit}",
        )
    # Past the gate the good way; TARGET's test is symmetric, so a
    # TARGET metric that got here never reads as improved.
    if current.direction.worse(-delta, tolerance):
        return diff(
            DiffStatus.WARN,
            f"improved {delta:+.3g} {current.unit} past the gate; "
            "refresh the baseline if intended",
        )
    return diff(DiffStatus.PASS, "within tolerance")


class CompareReport(Gate[MetricDiff]):
    """The full result of one manifest-vs-baseline comparison.

    Its notes are comparison-level warnings (design/config mismatches).
    """

    def __init__(
        self,
        current: RunManifest,
        baseline: RunManifest,
        rows: list[MetricDiff],
        notes: list[str],
    ) -> None:
        super().__init__(rows, notes)
        self.current = current
        self.baseline = baseline

    def render_table(self) -> str:
        """Return the per-metric diff table, worst statuses first."""
        rows = []
        for diff in self.ordered():
            rows.append(
                (
                    diff.name,
                    "-" if diff.baseline is None else f"{diff.baseline:.4g}",
                    "-" if diff.current is None else f"{diff.current:.4g}",
                    "-" if diff.delta is None else f"{diff.delta:+.3g}",
                    "-" if diff.tolerance is None else f"+/-{diff.tolerance:g}",
                    diff.status.value,
                    diff.note,
                )
            )
        title = (
            f"compare: {self.current.design} "
            f"@ {self.current.provenance.git_sha[:12]} vs baseline "
            f"@ {self.baseline.provenance.git_sha[:12]}"
        )
        table = render_table(
            title,
            ("metric", "baseline", "current", "delta", "tolerance", "status", "note"),
            rows,
        )
        if self.notes:
            notes = "\n".join(f"note: {note}" for note in self.notes)
            return table + "\n" + notes
        return table

    def summary(self) -> str:
        """Return a one-line pass/fail summary."""
        verdict = "PASS" if self.ok else "FAIL"
        regressed = ", ".join(d.name for d in self.regressions)
        suffix = f" -- regressed: {regressed}" if regressed else ""
        return (
            f"compare {verdict}: {self.current.design} -- "
            f"{len(self.rows)} metric(s), {len(self.regressions)} regression(s), "
            f"{len(self.warnings)} warning(s){suffix}"
        )


#: Config keys whose values must match for a comparison to be apples
#: to apples; mismatches are reported as comparison-level notes.
_COMPARED_CONFIG_KEYS = ("n_samples", "amplitude", "frequency", "sample_rate")


def compare_manifests(current: RunManifest, baseline: RunManifest) -> CompareReport:
    """Diff a run manifest against a baseline manifest.

    Design mismatches and differing measurement configs do not raise --
    they become comparison-level notes (failures under ``--strict``),
    because a cross-design diff is sometimes exactly what a developer
    asks for.
    """
    notes: list[str] = []
    if current.design != baseline.design:
        notes.append(
            f"design mismatch: comparing {current.design!r} "
            f"against baseline {baseline.design!r}"
        )
    for key in _COMPARED_CONFIG_KEYS:
        ours, theirs = current.config.get(key), baseline.config.get(key)
        if ours is not None and theirs is not None and ours != theirs:
            notes.append(
                f"config mismatch: {key}={ours!r} vs baseline {key}={theirs!r}"
            )

    baseline_by_name = {record.name: record for record in baseline.metrics}
    diffs: list[MetricDiff] = []
    seen: set[str] = set()
    for record in current.metrics:
        seen.add(record.name)
        other = baseline_by_name.get(record.name)
        if other is None:
            diffs.append(
                MetricDiff(
                    name=record.name,
                    unit=record.unit,
                    current=record.value,
                    baseline=None,
                    delta=None,
                    tolerance=record.tolerance,
                    status=DiffStatus.WARN if record.gate else DiffStatus.INFO,
                    note="not in baseline (NEW); refresh the baseline",
                )
            )
        else:
            diffs.append(_diff_one(record, other))
    for record in baseline.metrics:
        if record.name not in seen:
            diffs.append(
                MetricDiff(
                    name=record.name,
                    unit=record.unit,
                    current=None,
                    baseline=record.value,
                    delta=None,
                    tolerance=record.tolerance,
                    status=DiffStatus.WARN if record.gate else DiffStatus.INFO,
                    note="missing from this run (MISSING)",
                )
            )
    return CompareReport(current, baseline, diffs, notes)
