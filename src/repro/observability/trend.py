"""Cross-run trend analytics over the persistent run ledger.

The single-baseline gate (``repro compare``) answers "did this run
regress against the golden numbers"; this module answers the question
the repo could not ask before the ledger existed: "is this metric
*drifting*".  It walks every series the ledger holds -- gated manifest
metrics per design, sweep dynamic ranges, benchmark wall times -- and
applies a robust rolling statistic:

* the **reference** is the rolling median of the series' history
  (excluding the most recent ``sustain`` runs, so the drift being
  tested never contaminates its own reference);
* the **scale** is the MAD (median absolute deviation, scaled to
  sigma), floored at a fraction of the median so a perfectly stable
  history does not turn numerical dust into findings;
* a run is **drifted** when it deviates from the reference by more
  than ``threshold`` scales *in the bad direction* (each metric's
  declared direction: SNDR falling is bad, wall time rising is bad).

A point that is not a finite number (a sweep whose DR fit failed) is
dropped from its series.

The verdict uses the :class:`~repro.findings.DiffStatus` ladder every
gate shares: all of the last ``sustain`` runs drifted -> **REGRESS**
(sustained drift, the CI gate fires); only the newest run drifted ->
**WARN** (single-run noise -- watch it); otherwise **PASS**, with
series too short to judge reported as **INFO**.

``repro trend`` renders the verdicts (``--strict`` promotes warnings,
``--json`` emits the machine document) and ``repro history <design>``
shows the per-design trajectory with sparklines.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.errors import ConfigurationError
from repro.findings import DiffStatus, Gate, finite_or_none
from repro.metrics.records import Direction
from repro.observability.ledger import LedgerEntry, RunLedger
from repro.outputs import output_path
from repro.reporting.tables import render_table

__all__ = [
    "TREND_SCHEMA",
    "DEFAULT_WINDOW",
    "DEFAULT_SUSTAIN",
    "DEFAULT_THRESHOLD",
    "MetricSeries",
    "TrendFinding",
    "TrendReport",
    "collect_series",
    "analyze_series",
    "analyze_ledger",
    "render_history",
    "sparkline",
]

#: Schema identifier of a ``repro trend --json`` document.
TREND_SCHEMA = "repro.observability/trend/v1"

#: Rolling-reference length: how many historical runs (before the
#: sustain tail) feed the median/MAD.
DEFAULT_WINDOW = 10

#: How many consecutive drifted runs make the drift "sustained".
DEFAULT_SUSTAIN = 3

#: Drift threshold in robust scales (MAD-sigmas).
DEFAULT_THRESHOLD = 4.0

#: MAD floor as a fraction of |median|: below this, run-to-run scatter
#: is treated as at least 1% of the level so exact-replay histories
#: (deterministic sims produce bit-identical values) don't flag on the
#: first real change of any size in the good direction... the bad
#: direction still needs to clear threshold * floor.
_RELATIVE_SCALE_FLOOR = 0.01

#: Absolute scale floor, guarding series whose median is ~0.
_ABSOLUTE_SCALE_FLOOR = 1e-12

#: Unicode sparkline glyphs, lowest to highest.
_SPARK_GLYPHS = "▁▂▃▄▅▆▇█"


@dataclass(frozen=True)
class MetricSeries:
    """One metric's trajectory through the ledger.

    Attributes
    ----------
    key:
        Stable series key (``modulator2:sndr_db``,
        ``bench:fig7_snr_sweep.wall_s``).
    design:
        Owning design, or None for suite-level series.
    unit:
        Display unit.
    direction:
        Which drift direction is bad.
    values:
        Values in append (run) order.
    timestamps:
        Provenance timestamps aligned with ``values``.
    shas:
        Provenance git SHAs aligned with ``values``.
    """

    key: str
    design: str | None
    unit: str
    direction: Direction
    values: tuple[float, ...]
    timestamps: tuple[str, ...]
    shas: tuple[str, ...]


@dataclass(frozen=True)
class TrendFinding:
    """One series' drift verdict.

    Attributes
    ----------
    series:
        The analyzed series.
    status:
        PASS / WARN / REGRESS / INFO verdict.
    reference:
        Rolling median the tail was judged against (None for INFO).
    scale:
        Robust scale used (MAD-sigma with floors; None for INFO).
    latest:
        Most recent value.
    drift:
        ``latest - reference`` (None for INFO).
    note:
        Human explanation.
    """

    series: MetricSeries
    status: DiffStatus
    reference: float | None
    scale: float | None
    latest: float | None
    drift: float | None
    note: str

    def as_dict(self) -> dict[str, object]:
        """Return the finding as a JSON-ready dictionary."""
        return {
            "key": self.series.key,
            "design": self.series.design,
            "unit": self.series.unit,
            "direction": self.series.direction.value,
            "n_runs": len(self.series.values),
            "values": list(self.series.values),
            "status": self.status.value,
            "reference": self.reference,
            "scale": self.scale,
            "latest": self.latest,
            "drift": self.drift,
            "note": self.note,
        }


def _series_points(
    entries: Sequence[LedgerEntry],
) -> dict[str, list[tuple[float, str, str, str | None, str, Direction]]]:
    """Flatten ledger entries into per-key (value, ts, sha, ...) points."""
    points: dict[
        str, list[tuple[float, str, str, str | None, str, Direction]]
    ] = {}

    def add(
        key: str,
        value: float | None,
        entry: LedgerEntry,
        design: str | None,
        unit: str,
        direction: Direction,
    ) -> None:
        if value is None:
            return
        points.setdefault(key, []).append(
            (value, entry.timestamp, entry.git_sha, design, unit, direction)
        )

    for entry in entries:
        if entry.kind == "report":
            metrics = entry.payload.get("metrics")
            if not isinstance(metrics, list):
                continue
            for record in metrics:
                if not isinstance(record, dict) or not record.get("gate", True):
                    continue
                name = record.get("name")
                if not isinstance(name, str) or not name:
                    continue
                try:
                    direction = Direction.from_name(
                        str(record.get("direction", "target"))
                    )
                except Exception:
                    direction = Direction.TARGET
                add(
                    f"{entry.design}:{name}",
                    finite_or_none(record.get("value")),
                    entry,
                    entry.design,
                    str(record.get("unit", "")),
                    direction,
                )
        elif entry.kind == "sweep":
            add(
                f"{entry.design}:sweep.dynamic_range_db",
                finite_or_none(entry.payload.get("dynamic_range_db")),
                entry,
                entry.design,
                "dB",
                Direction.HIGHER,
            )
        elif entry.kind == "bench":
            name = entry.payload.get("benchmark")
            if not isinstance(name, str) or not name:
                continue
            add(
                f"bench:{name}.wall_s",
                finite_or_none(entry.payload.get("wall_s")),
                entry,
                None,
                "s",
                Direction.LOWER,
            )
    return points


def collect_series(
    ledger: RunLedger, design: str | None = None
) -> list[MetricSeries]:
    """Build every metric series the ledger holds, in key order.

    Parameters
    ----------
    ledger:
        The ledger to read.
    design:
        Restrict to one design's series (bench series, which belong to
        no design, are excluded by a design filter).
    """
    entries = list(ledger.entries())
    series: list[MetricSeries] = []
    for key, items in sorted(_series_points(entries).items()):
        owner = items[0][3]
        if design is not None and owner != design:
            continue
        series.append(
            MetricSeries(
                key=key,
                design=owner,
                unit=items[0][4],
                direction=items[0][5],
                values=tuple(item[0] for item in items),
                timestamps=tuple(item[1] for item in items),
                shas=tuple(item[2] for item in items),
            )
        )
    return series


def analyze_series(
    series: MetricSeries,
    window: int = DEFAULT_WINDOW,
    sustain: int = DEFAULT_SUSTAIN,
    threshold: float = DEFAULT_THRESHOLD,
) -> TrendFinding:
    """Judge one series for drift against its own rolling history.

    The reference median/MAD come from the runs *before* the sustain
    tail (bounded by ``window``), so a 3-run drift is judged against
    the stable history it departed from, not against itself.
    """
    values = series.values
    n = len(values)
    if n < sustain + 2:
        return TrendFinding(
            series=series,
            status=DiffStatus.INFO,
            reference=None,
            scale=None,
            latest=values[-1] if values else None,
            drift=None,
            note=f"insufficient history ({n} run(s), need {sustain + 2})",
        )
    reference_values = values[max(0, n - sustain - window) : n - sustain]
    reference = statistics.median(reference_values)
    mad = statistics.median(
        [abs(value - reference) for value in reference_values]
    )
    scale = max(
        1.4826 * mad,
        abs(reference) * _RELATIVE_SCALE_FLOOR,
        _ABSOLUTE_SCALE_FLOOR,
    )

    def is_bad(value: float) -> bool:
        return series.direction.worse((value - reference) / scale, threshold)

    latest = values[-1]
    drift = latest - reference

    def finding(status: DiffStatus, note: str) -> TrendFinding:
        return TrendFinding(series, status, reference, scale, latest, drift, note)

    if all(is_bad(value) for value in values[n - sustain :]):
        return finding(
            DiffStatus.REGRESS,
            f"sustained drift: last {sustain} run(s) beyond "
            f"{threshold:g} scales ({scale:.3g} {series.unit}) "
            f"from the rolling median {reference:.4g} {series.unit}",
        )
    if is_bad(latest):
        return finding(
            DiffStatus.WARN,
            f"latest run drifted {drift:+.3g} {series.unit} from the "
            f"rolling median; not yet sustained",
        )
    return finding(DiffStatus.PASS, "within the rolling band")


class TrendReport(Gate[TrendFinding]):
    """Every series' drift verdict over one ledger."""

    def __init__(
        self,
        rows: list[TrendFinding],
        window: int,
        sustain: int,
        threshold: float,
    ) -> None:
        super().__init__(rows)
        self.window = window
        self.sustain = sustain
        self.threshold = threshold

    def render_table(self) -> str:
        """Return the verdicts as a paper-style table, worst first."""
        rows = []
        for finding in self.ordered():
            rows.append(
                (
                    finding.series.key,
                    str(len(finding.series.values)),
                    sparkline(finding.series.values),
                    (
                        f"{finding.reference:.4g}"
                        if finding.reference is not None
                        else "-"
                    ),
                    f"{finding.latest:.4g}" if finding.latest is not None else "-",
                    (
                        f"{finding.drift:+.3g}"
                        if finding.drift is not None
                        else "-"
                    ),
                    finding.status.value,
                    finding.note,
                )
            )
        if not rows:
            rows = [("-", "-", "-", "-", "-", "-", "-", "ledger is empty")]
        return render_table(
            f"trend (window {self.window}, sustain {self.sustain}, "
            f"threshold {self.threshold:g} scales)",
            (
                "series",
                "runs",
                "history",
                "median",
                "latest",
                "drift",
                "status",
                "note",
            ),
            rows,
        )

    def summary(self) -> str:
        """Return a one-line verdict summary."""
        verdict = "REGRESS" if self.regressions else "PASS"
        return (
            f"trend {verdict}: {len(self.rows)} series, "
            f"{len(self.regressions)} sustained drift(s), "
            f"{len(self.warnings)} single-run warning(s)"
        )

    def as_dict(self) -> dict[str, object]:
        """Return the report as a JSON-ready trend document."""
        return {
            "schema": TREND_SCHEMA,
            "window": self.window,
            "sustain": self.sustain,
            "threshold": self.threshold,
            "findings": [finding.as_dict() for finding in self.rows],
        }

    def write_json(self, path: str | Path) -> Path:
        """Write the trend document as indented JSON; return the path."""
        target = output_path(path)
        target.write_text(json.dumps(self.as_dict(), indent=2) + "\n")
        return target


def analyze_ledger(
    ledger: RunLedger,
    design: str | None = None,
    window: int = DEFAULT_WINDOW,
    sustain: int = DEFAULT_SUSTAIN,
    threshold: float = DEFAULT_THRESHOLD,
) -> TrendReport:
    """Analyze every series in a ledger; return the trend report.

    Raises
    ------
    ConfigurationError
        If ``window`` or ``sustain`` is below 1, or ``threshold`` is
        not a finite positive number.
    """
    bound = finite_or_none(threshold)
    if window < 1 or sustain < 1 or bound is None or bound <= 0.0:
        raise ConfigurationError(
            "trend needs a window and a sustain of at least 1 and a finite "
            f"positive threshold, got window {window}, sustain {sustain} "
            f"and threshold {threshold!r}"
        )
    findings = [
        analyze_series(series, window=window, sustain=sustain, threshold=threshold)
        for series in collect_series(ledger, design=design)
    ]
    return TrendReport(findings, window=window, sustain=sustain, threshold=threshold)


def sparkline(values: Sequence[float], width: int = 16) -> str:
    """Render a numeric series as a fixed-width Unicode sparkline.

    The most recent ``width`` values are shown; a flat series renders
    as a mid-level bar so "no change" and "no data" look different.
    """
    shown = list(values)[-width:]
    if not shown:
        return "-"
    low, high = min(shown), max(shown)
    if high == low:
        return _SPARK_GLYPHS[3] * len(shown)
    span = high - low
    out = []
    for value in shown:
        index = int((value - low) / span * (len(_SPARK_GLYPHS) - 1))
        out.append(_SPARK_GLYPHS[index])
    return "".join(out)


def render_history(
    ledger: RunLedger, design: str, limit: int = 10
) -> str:
    """Render one design's ledger trajectory for ``repro history``.

    Two tables: the per-metric trajectory (sparkline, range, latest)
    and the most recent entries with their provenance, so a developer
    can see both *what moved* and *which commits moved it*.
    """
    series = collect_series(ledger, design=design)
    metric_rows = []
    for item in series:
        metric_rows.append(
            (
                item.key.split(":", 1)[1],
                str(len(item.values)),
                sparkline(item.values),
                f"{min(item.values):.4g}",
                f"{max(item.values):.4g}",
                f"{item.values[-1]:.4g} {item.unit}",
            )
        )
    if not metric_rows:
        metric_rows = [("-", "-", "-", "-", "-", "no ledger history")]
    metrics_table = render_table(
        f"history: {design}",
        ("metric", "runs", "history", "min", "max", "latest"),
        metric_rows,
    )

    entries = [e for e in ledger.entries(design=design)]
    entry_rows = []
    for entry in entries[-limit:]:
        dirty = entry.provenance.get("git_dirty")
        host = entry.provenance.get("hostname")
        entry_rows.append(
            (
                entry.timestamp,
                entry.kind,
                entry.git_sha[:12] + (" (dirty)" if dirty else ""),
                str(host) if isinstance(host, str) and host else "-",
                entry.entry_id[:19],
            )
        )
    if not entry_rows:
        entry_rows = [("-", "-", "-", "-", "no entries")]
    entries_table = render_table(
        f"entries: {design} (last {limit})",
        ("timestamp", "kind", "commit", "host", "entry"),
        entry_rows,
    )
    return metrics_table + "\n" + entries_table
