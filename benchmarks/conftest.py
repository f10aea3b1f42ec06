"""Shared fixtures and helpers for the benchmark harness.

Every bench reproduces one table, figure or analysis of the paper,
prints the paper-vs-measured comparison, asserts the *shape* criteria
from DESIGN.md, and registers its headline numbers as pytest-benchmark
``extra_info`` so they land in the benchmark report.

Each :func:`run_once` call also records its wall time (and, when the
bench declares its simulated sample count, samples-per-second
throughput); the harness merges them into ``BENCH_telemetry.json`` at
the repository root when the session ends, so CI can archive a
machine-readable performance record next to the benchmark report.

The document is written with
:func:`repro.metrics.manifest.write_bench_telemetry`: records are
keyed by benchmark name and *merged* with any existing document, so a
partial run (CI benchmarking a single file, a developer re-running one
bench) updates its own entries without clobbering the other
benchmarks' records -- the old harness rewrote the whole file and left
``n_benchmarks: 1`` behind.  The document carries a provenance stamp
(git SHA, timestamp, versions, argv) plus the legacy top-level keys as
a back-compat alias.

Run with::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.config import MODULATOR_CLOCK, delay_line_cell_config, paper_cell_config
from repro.metrics.manifest import write_bench_telemetry
from repro.observability.instruments import InstrumentRegistry, use_registry

#: Telemetry records accumulated by run_once during this session.
_TELEMETRY_RECORDS: list[dict[str, object]] = []

#: FFT length used by the full-fidelity benches (the paper's 64K).
FULL_FFT = 1 << 16

#: FFT length for the sweep benches, trading a little resolution for
#: runtime (the DR fit only needs the in-band floor).
SWEEP_FFT = 1 << 15


@pytest.fixture
def modulator_config():
    """Calibrated cell configuration at the modulator clock."""
    return paper_cell_config(sample_rate=MODULATOR_CLOCK)


@pytest.fixture
def delay_config():
    """Calibrated delay-line cell configuration."""
    return delay_line_cell_config()


def run_once(
    benchmark,
    func,
    n_samples: int | None = None,
    extra: dict[str, object] | None = None,
):
    """Run an experiment exactly once under pytest-benchmark timing.

    The experiments are deterministic simulations, so a single round is
    representative and keeps the harness fast.

    ``n_samples`` is the total number of simulated samples the
    experiment processes; benches that declare it get a
    samples-per-second figure in ``BENCH_telemetry.json``.  ``extra``
    fields (e.g. a vectorized-vs-scalar ``speedup``) are merged into
    the bench's telemetry record, where the CI benchmark gate
    (``repro bench-gate``) can enforce floors on them.

    The record also carries the dominant execution engine tier
    (``"kernel"``, ``"batch"`` or ``"scalar"``, from the
    ``repro.engine.runs`` counts of the timed section, which runs in a
    registry of its own; None for analysis-only benches), so ``repro
    trend`` series never silently mix scalar and kernel timings.
    """
    registry = InstrumentRegistry()
    start = time.perf_counter()
    with use_registry(registry):
        result = benchmark.pedantic(func, rounds=1, iterations=1)
    wall_s = time.perf_counter() - start
    record: dict[str, object] = {
        "benchmark": getattr(benchmark, "name", None) or func.__qualname__,
        "wall_s": wall_s,
        "n_samples": n_samples,
        "samples_per_second": (
            n_samples / wall_s if n_samples and wall_s > 0.0 else None
        ),
        "engine": _dominant_engine(registry.snapshot()),
    }
    if extra:
        record.update(extra)
    _TELEMETRY_RECORDS.append(record)
    return result


def _dominant_engine(snapshot: dict[str, object]) -> str | None:
    """Return the engine tier that executed most runs in the snapshot.

    Sums the ``repro.engine.runs`` counter series by engine label; a
    bench that ran no devices (pure analysis) yields None.
    """
    instruments = snapshot.get("instruments")
    entry = instruments.get("repro.engine.runs") if isinstance(instruments, dict) else None
    if not isinstance(entry, dict):
        return None
    totals: dict[str, float] = {}
    for series in entry.get("series", ()):
        labels = series.get("labels", {})
        engine = str(labels.get("engine", "unknown"))
        totals[engine] = totals.get(engine, 0.0) + float(series.get("value", 0.0))
    if not totals:
        return None
    return max(totals, key=lambda name: totals[name])


def record_extra(benchmark_name: str, **fields: object) -> None:
    """Amend the most recent telemetry record for a named benchmark.

    Benches that compute derived figures (speedups, ratios) after the
    timed section use this to attach them to the record ``run_once``
    already filed.
    """
    for record in reversed(_TELEMETRY_RECORDS):
        if record.get("benchmark") == benchmark_name:
            record.update(fields)
            return


def pytest_sessionfinish(session, exitstatus):
    """Merge the session's telemetry into BENCH_telemetry.json + ledger.

    Besides the merged telemetry document, every record of this session
    is appended to the persistent run ledger (one ``bench`` entry per
    benchmark), so ``repro trend`` can watch wall times drift across
    sessions.  Ledger failures never fail the bench run.
    """
    if not _TELEMETRY_RECORDS:
        return
    target = Path(session.config.rootpath) / "BENCH_telemetry.json"
    write_bench_telemetry(target, _TELEMETRY_RECORDS)
    try:
        from repro.metrics.provenance import collect_provenance
        from repro.observability.ledger import RunLedger

        ledger = RunLedger()
        provenance = collect_provenance().as_dict()
        for record in _TELEMETRY_RECORDS:
            ledger.append("bench", record, provenance=provenance)
    except Exception as exc:  # pragma: no cover - best-effort bookkeeping
        print(f"ledger: bench records not recorded ({exc})")
