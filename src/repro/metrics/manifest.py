"""Run manifests: one JSON document per measured run.

A manifest is the durable record of a run: which design, which
configuration (FFT length, stimulus, injected degradations), the full
provenance block (git SHA, timestamp, versions, argv) and every metric
record the run produced.  Golden manifests live in ``baselines/`` and
``repro compare`` diffs fresh manifests against them.

The module also owns the ``BENCH_telemetry.json`` writer used by the
benchmark harness: the same schema family (``repro.metrics/...``),
with the legacy top-level keys (``n_benchmarks``, ``total_wall_s``,
``records``) preserved as a back-compat alias for external tooling
that consumed the pre-manifest format.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping, Sequence

from repro.errors import MetricsError
from repro.findings import read_json_object
from repro.metrics.provenance import Provenance, collect_provenance
from repro.metrics.records import MetricRecord
from repro.metrics.registry import MetricRegistry
from repro.outputs import output_path
from repro.reporting.tables import render_table

__all__ = [
    "MANIFEST_SCHEMA",
    "BENCH_SCHEMA",
    "RunManifest",
    "manifest_from_registry",
    "load_manifest",
    "write_bench_telemetry",
    "merge_bench_records",
]

#: Schema identifier of a run manifest document.
MANIFEST_SCHEMA = "repro.metrics/run-manifest/v1"

#: Schema identifier of the benchmark-harness telemetry document.
BENCH_SCHEMA = "repro.metrics/bench-telemetry/v1"


class RunManifest:
    """One run's metrics, configuration and provenance.

    Parameters
    ----------
    design:
        Design label (``modulator2``, ``delay-line``, ...).
    metrics:
        The run's metric records, in file order.
    config:
        JSON-ready run configuration (FFT length, stimulus, knobs).
    provenance:
        Attribution block; collected from the current process when
        omitted.
    instruments:
        Optional snapshot of the run's own instrument registry
        (:meth:`repro.observability.instruments.InstrumentRegistry.snapshot`):
        what the run's runtime layer did -- cache hits/misses, engine
        runs and fallbacks, shard counts, and only the gauges the run
        set.  Stored verbatim; empty means "not
        collected" and is omitted from the JSON document, so manifests
        written before this section existed stay byte-compatible.
    """

    def __init__(
        self,
        design: str,
        metrics: Sequence[MetricRecord],
        config: Mapping[str, object] | None = None,
        provenance: Provenance | None = None,
        instruments: Mapping[str, object] | None = None,
    ) -> None:
        if not design:
            raise MetricsError("manifest design must be non-empty")
        self.design = design
        self.metrics: tuple[MetricRecord, ...] = tuple(metrics)
        self.config: dict[str, object] = dict(config or {})
        self.provenance = (
            provenance if provenance is not None else collect_provenance()
        )
        self.instruments: dict[str, object] = dict(instruments or {})

    def get(self, name: str) -> MetricRecord | None:
        """Return the record for a metric name, or None."""
        for record in self.metrics:
            if record.name == name:
                return record
        return None

    # -- serialization -------------------------------------------------

    def as_dict(self) -> dict[str, object]:
        """Return the manifest as a JSON-ready dictionary.

        The ``instruments`` section appears only when a snapshot delta
        with at least one instrument was attached -- older manifests
        (and runs that never collected instruments) round-trip without
        the key.
        """
        out: dict[str, object] = {
            "schema": MANIFEST_SCHEMA,
            "design": self.design,
            "config": self.config,
            "provenance": self.provenance.as_dict(),
            "metrics": [record.as_dict() for record in self.metrics],
        }
        if self.instruments.get("instruments"):
            out["instruments"] = self.instruments
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RunManifest":
        """Rebuild a manifest from :meth:`as_dict` output.

        Raises
        ------
        MetricsError
            If the schema or structure is not a run manifest.
        """
        schema = data.get("schema")
        if schema != MANIFEST_SCHEMA:
            raise MetricsError(
                f"not a run manifest: schema {schema!r}, expected {MANIFEST_SCHEMA!r}"
            )
        design = data.get("design")
        if not isinstance(design, str) or not design:
            raise MetricsError(f"manifest design must be a string, got {design!r}")
        metrics_raw = data.get("metrics")
        if not isinstance(metrics_raw, list):
            raise MetricsError("manifest metrics must be a list")
        config = data.get("config")
        provenance = data.get("provenance")
        instruments = data.get("instruments")
        return cls(
            design=design,
            metrics=[
                MetricRecord.from_dict(entry)
                for entry in metrics_raw
                if isinstance(entry, dict)
            ],
            config=config if isinstance(config, dict) else {},
            provenance=Provenance.from_dict(
                provenance if isinstance(provenance, dict) else {}
            ),
            instruments=instruments if isinstance(instruments, dict) else None,
        )

    def write_json(self, path: str | Path) -> Path:
        """Write the manifest as indented JSON; returns the path."""
        target = output_path(path)
        target.write_text(json.dumps(self.as_dict(), indent=2) + "\n")
        return target

    # -- rendering -----------------------------------------------------

    def render_table(self) -> str:
        """Return the manifest as a paper-style text table."""
        rows = []
        for record in self.metrics:
            if record.paper_value is None:
                paper = "-"
            else:
                match = record.matches_paper
                verdict = "" if match is None else (" ok" if match else " MISMATCH")
                paper = f"{record.paper_value:g} {record.unit}{verdict}"
            rows.append(
                (
                    record.name,
                    f"{record.display_value()} {record.unit}",
                    paper,
                    record.provenance or "-",
                )
            )
        return render_table(
            f"run manifest: {self.design} @ {self.provenance.git_sha[:12]}",
            ("metric", "measured", "paper", "provenance"),
            rows,
        )

    def render_markdown(self) -> str:
        """Return the manifest as a Markdown report section."""
        lines = [
            f"## Run manifest: `{self.design}`",
            "",
            f"- git SHA: `{self.provenance.git_sha}`"
            + (" (dirty)" if self.provenance.git_dirty else ""),
            f"- timestamp: {self.provenance.timestamp}",
            f"- python {self.provenance.python_version}, "
            f"numpy {self.provenance.numpy_version}",
        ]
        if self.config:
            config = ", ".join(f"{k}={v}" for k, v in sorted(self.config.items()))
            lines.append(f"- config: {config}")
        lines += [
            "",
            "| metric | measured | paper | provenance |",
            "|---|---|---|---|",
        ]
        for record in self.metrics:
            if record.paper_value is None:
                paper = "—"
            else:
                verdict = "✓" if record.matches_paper else "✗"
                paper = f"{record.paper_value:g} {record.unit} {verdict}"
            lines.append(
                f"| `{record.name}` | {record.display_value()} {record.unit} "
                f"| {paper} | {record.provenance or '—'} |"
            )
        return "\n".join(lines) + "\n"


def manifest_from_registry(
    registry: MetricRegistry,
    config: Mapping[str, object] | None = None,
    provenance: Provenance | None = None,
    instruments: Mapping[str, object] | None = None,
) -> RunManifest:
    """Build a manifest from a registry's filed records."""
    return RunManifest(
        design=registry.design,
        metrics=registry.records,
        config=config,
        provenance=provenance,
        instruments=instruments,
    )


def load_manifest(path: str | Path) -> RunManifest:
    """Load a run manifest from a JSON file.

    Raises
    ------
    MetricsError
        If the file is missing, not JSON, or not a run manifest.
    """
    return RunManifest.from_dict(read_json_object(path, "manifest", MetricsError))


# -- benchmark-harness telemetry --------------------------------------


def merge_bench_records(
    existing: Mapping[str, object] | None,
    new_records: Sequence[Mapping[str, object]],
) -> list[dict[str, object]]:
    """Merge a session's benchmark records into a prior document's.

    Records are keyed by benchmark name: a partial run (CI runs a
    single bench file; a developer re-runs one bench) updates its own
    entries and leaves every other benchmark's record intact, instead
    of clobbering the whole document with ``n_benchmarks: 1``.
    """
    merged: dict[str, dict[str, object]] = {}
    if existing is not None:
        prior = existing.get("records")
        if isinstance(prior, list):
            for entry in prior:
                if isinstance(entry, dict) and isinstance(
                    entry.get("benchmark"), str
                ):
                    merged[str(entry["benchmark"])] = dict(entry)
    for record in new_records:
        name = record.get("benchmark")
        if isinstance(name, str):
            merged[name] = dict(record)
    return [merged[name] for name in sorted(merged)]


def write_bench_telemetry(
    path: str | Path,
    records: Sequence[Mapping[str, object]],
    provenance: Provenance | None = None,
) -> Path:
    """Write (merging with any prior document) ``BENCH_telemetry.json``.

    The document is a ``repro.metrics`` schema with a provenance stamp;
    the legacy top-level keys (``n_benchmarks``, ``total_wall_s``,
    ``records``) are kept as a back-compat alias of the pre-manifest
    format, so existing consumers keep working unchanged.
    """
    target = output_path(path)
    existing: dict[str, object] | None = None
    if target.exists():
        try:
            loaded = json.loads(target.read_text())
            if isinstance(loaded, dict):
                existing = loaded
        except (OSError, json.JSONDecodeError):
            existing = None
    merged = merge_bench_records(existing, records)
    stamp = provenance if provenance is not None else collect_provenance()
    total = 0.0
    for entry in merged:
        wall = entry.get("wall_s")
        if isinstance(wall, (int, float)) and not isinstance(wall, bool):
            total += float(wall)
    payload: dict[str, object] = {
        "schema": BENCH_SCHEMA,
        "provenance": stamp.as_dict(),
        # Legacy alias block: same keys and layout as the original
        # BENCH_telemetry.json so `jq .records` consumers keep working.
        "n_benchmarks": len(merged),
        "total_wall_s": total,
        "records": merged,
    }
    target.write_text(json.dumps(payload, indent=2) + "\n")
    return target
