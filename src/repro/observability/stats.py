"""Instrument snapshot documents and the ``repro stats --diff`` gate.

``repro stats <design> --json`` writes a provenance-stamped snapshot
document (:data:`STATS_SCHEMA`); this module loads two such documents
and diffs them series by series on the verdict ladder every gate
shares (:class:`~repro.findings.DiffStatus`):

* a **gated** counter increasing (``repro.executor.timeouts``,
  ``repro.cache.corruption`` -> REGRESS; retries, kernel fallbacks to
  the scalar loop, batch refusals -> WARN) fails or warns;
* a series present on only one side -> WARN (``NEW`` / ``MISSING``);
* any other change -> INFO (cache hit counts legitimately differ run
  to run); unchanged series -> PASS.

``repro stats --diff current.json baseline.json --strict`` promotes
warnings to failures, so instrument snapshots participate in the same
regression workflow as run manifests.  A series value that is not a
finite number is refused: the gate never judges a number it cannot
read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from repro.errors import ObservabilityError
from repro.findings import DiffStatus, Gate, finite_or_none, read_json_object
from repro.observability.instruments import SNAPSHOT_SCHEMA
from repro.outputs import output_path
from repro.reporting.tables import render_table

__all__ = [
    "STATS_SCHEMA",
    "PROFILE_SCHEMA",
    "GATED_COUNTERS",
    "InstrumentDiff",
    "StatsDiffReport",
    "diff_snapshots",
    "write_stats_json",
    "load_stats_json",
]

#: Schema identifier of a ``repro stats --json`` document.
STATS_SCHEMA = "repro.observability/stats/v1"

#: Schema identifier of a ``repro profile --json`` document.  Since v2
#: its ``spans`` are the trace JSONL's flat span records (``id`` and
#: ``parent`` links), not nested subtrees.
PROFILE_SCHEMA = "repro.observability/profile/v2"

#: Counters whose *increase* between baseline and current is a finding.
#: Everything else is informational -- cache hit counts legitimately
#: differ between a cold and a warm run.
GATED_COUNTERS: dict[str, DiffStatus] = {
    "repro.executor.timeouts": DiffStatus.REGRESS,
    "repro.cache.corruption": DiffStatus.REGRESS,
    "repro.executor.retries": DiffStatus.WARN,
    "repro.single.fallbacks": DiffStatus.WARN,
    "repro.batch.refusals": DiffStatus.WARN,
}


@dataclass(frozen=True)
class InstrumentDiff:
    """One instrument series' verdict.

    Attributes
    ----------
    name:
        Instrument name.
    labels:
        Rendered label set (``kind=amplitude-sweep`` or ``-``).
    current / baseline:
        The two sides' values (counter value or histogram count);
        None when the series is missing on that side.
    status:
        The verdict, shared with the manifest compare gate.
    note:
        Human explanation.
    """

    name: str
    labels: str
    current: float | None
    baseline: float | None
    status: DiffStatus
    note: str


class StatsDiffReport(Gate[InstrumentDiff]):
    """Every series' verdict for one snapshot comparison."""

    def render_table(self) -> str:
        """Return the comparison as a paper-style text table."""
        rows = []
        for diff in self.rows:
            rows.append(
                (
                    diff.name,
                    diff.labels,
                    f"{diff.current:g}" if diff.current is not None else "-",
                    f"{diff.baseline:g}" if diff.baseline is not None else "-",
                    diff.status.value,
                    diff.note,
                )
            )
        if not rows:
            rows = [("-", "-", "-", "-", "-", "no instruments on either side")]
        return render_table(
            "instrument snapshot diff",
            ("instrument", "labels", "current", "baseline", "status", "note"),
            rows,
        )

    def summary(self) -> str:
        """Return a one-line verdict summary."""
        verdict = "REGRESS" if self.regressions else "PASS"
        return (
            f"stats diff {verdict}: {len(self.rows)} series, "
            f"{len(self.regressions)} regression(s), "
            f"{len(self.warnings)} warning(s)"
        )


def _series_values(
    snapshot: Mapping[str, object],
) -> dict[tuple[str, str], tuple[str, float]]:
    """Flatten a snapshot to ``(name, labels) -> (kind, value)``.

    Counters and gauges map to their value, histograms to their
    observation count (latency distributions shift run to run; the
    gateable quantity is how many events happened).

    Raises
    ------
    ObservabilityError
        If a series value is not a finite number.
    """
    out: dict[tuple[str, str], tuple[str, float]] = {}
    instruments = snapshot.get("instruments")
    if not isinstance(instruments, dict):
        raise ObservabilityError("snapshot has no instruments mapping")
    for name in sorted(instruments):
        entry = instruments[name]
        if not isinstance(entry, dict):
            continue
        kind = str(entry.get("kind", ""))
        series = entry.get("series")
        if not isinstance(series, list):
            continue
        for item in series:
            if not isinstance(item, dict):
                continue
            labels = item.get("labels")
            rendered = (
                ",".join(
                    f"{k}={v}"
                    for k, v in sorted(
                        (str(k), str(v)) for k, v in labels.items()
                    )
                )
                if isinstance(labels, dict) and labels
                else "-"
            )
            raw = item.get("count") if kind == "histogram" else item.get("value")
            value = finite_or_none(raw)
            if value is None:
                raise ObservabilityError(
                    f"series {name} [{rendered}] has no finite value: {raw!r}"
                )
            out[(str(name), rendered)] = (kind, value)
    return out


def diff_snapshots(
    current: Mapping[str, object], baseline: Mapping[str, object]
) -> StatsDiffReport:
    """Diff two instrument snapshots, series by series.

    Raises
    ------
    ObservabilityError
        If either document is not a well-formed snapshot.
    """
    current_values = _series_values(current)
    baseline_values = _series_values(baseline)
    rows: list[InstrumentDiff] = []
    for key in sorted(set(current_values) | set(baseline_values)):
        name, labels = key
        cur = current_values.get(key)
        base = baseline_values.get(key)
        gate = GATED_COUNTERS.get(name)
        if cur is None:
            assert base is not None
            rows.append(
                InstrumentDiff(
                    name, labels, None, base[1], DiffStatus.WARN,
                    "MISSING: series absent from the current snapshot",
                )
            )
            continue
        if base is None:
            status = gate if gate is not None and cur[1] > 0 else DiffStatus.WARN
            rows.append(
                InstrumentDiff(
                    name, labels, cur[1], None, status,
                    "NEW: series absent from the baseline snapshot",
                )
            )
            continue
        delta = cur[1] - base[1]
        if delta == 0.0:
            rows.append(
                InstrumentDiff(
                    name, labels, cur[1], base[1], DiffStatus.PASS, "unchanged"
                )
            )
        elif gate is not None and delta > 0.0:
            rows.append(
                InstrumentDiff(
                    name, labels, cur[1], base[1], gate,
                    f"gated counter increased by {delta:g}",
                )
            )
        else:
            rows.append(
                InstrumentDiff(
                    name, labels, cur[1], base[1], DiffStatus.INFO,
                    f"changed by {delta:+g} (not gated)",
                )
            )
    return StatsDiffReport(rows)


def write_stats_json(
    path: str | Path,
    snapshot: Mapping[str, object],
    design: str | None = None,
    config: Mapping[str, object] | None = None,
) -> Path:
    """Write a provenance-stamped stats document; return the path."""
    # Imported lazily: repro.metrics imports repro.telemetry at package
    # import time and this module is imported by low-level runtime code.
    from repro.metrics.provenance import collect_provenance

    document: dict[str, object] = {
        "schema": STATS_SCHEMA,
        "design": design,
        "config": dict(config or {}),
        "provenance": collect_provenance().as_dict(),
        "snapshot": dict(snapshot),
    }
    target = output_path(path)
    target.write_text(json.dumps(document, indent=2) + "\n")
    return target


def load_stats_json(path: str | Path) -> dict[str, object]:
    """Load the snapshot from a stats document (or a bare snapshot).

    Raises
    ------
    ObservabilityError
        If the file is missing, not JSON, or neither a stats document
        nor a bare instrument snapshot.
    """
    target = Path(path)
    data = read_json_object(target, "stats document", ObservabilityError)
    if data.get("schema") == STATS_SCHEMA:
        snapshot = data.get("snapshot")
        if not isinstance(snapshot, dict):
            raise ObservabilityError(
                f"stats document {target} has no snapshot object"
            )
        return snapshot
    if data.get("schema") == SNAPSHOT_SCHEMA:
        return data
    raise ObservabilityError(
        f"{target} is neither a stats document ({STATS_SCHEMA}) nor an "
        f"instrument snapshot ({SNAPSHOT_SCHEMA})"
    )
