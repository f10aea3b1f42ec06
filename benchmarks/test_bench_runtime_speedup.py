"""Extension: wall-time of the vectorized batch engine vs the scalar loop.

The runtime engine (:mod:`repro.runtime`) promises two things: results
bit-identical to the scalar simulation loops, and a large wall-time
win from executing all sweep lanes (or Monte-Carlo trials) through one
NumPy batch.  This bench measures both on the two workloads CI gates:

* the CMFF Monte-Carlo area sweep (trial-parallel draws), and
* the modulator-2 SNDR-vs-level sweep (lane-parallel batch runners,
  sharded through a ``--jobs 4`` :class:`SweepExecutor`).

The measured speedups land in ``BENCH_telemetry.json`` where
``repro bench-gate`` enforces the committed floor -- a vectorized path
silently falling back to the scalar loop fails CI, not just feels
slow.
"""

import time

import numpy as np

from benchmarks.conftest import run_once
from repro.analysis.sweeps import run_amplitude_sweep
from repro.config import (
    MODULATOR_CLOCK,
    MODULATOR_FULL_SCALE,
    SIGNAL_BANDWIDTH,
    paper_cell_config,
)
from repro.deltasigma import SIModulator2
from repro.devices.mismatch import PelgromMismatch
from repro.reporting.records import PaperComparison
from repro.reporting.tables import Table
from repro.runtime import SweepExecutor
from repro.runtime.engine import force_scalar, use_engine
from repro.runtime.kernels import jit_status
from repro.runtime.sweeps import run_sweep, sweep_spec_for_design
from repro.systems.montecarlo import CmffMonteCarlo
from repro.systems.stimulus import coherent_frequency

#: Floor on the vectorized-vs-scalar speedup both benches assert (the
#: committed ``baselines/bench.json`` gates the same figure in CI).
MIN_SPEEDUP = 5.0

#: Monte-Carlo workload: mirror areas and trials per area.
AREAS_UM2 = [4.0, 16.0, 64.0, 256.0]
N_TRIALS = 2000

#: SNDR-sweep workload: lanes and samples per lane.
SWEEP_LANES = 33
SWEEP_SAMPLES = 1 << 13

#: Kernel-speedup workload: one paper-length modulator run.
KERNEL_SAMPLES = 1 << 16

#: Floor the pure-Python kernel clears comfortably; the committed
#: baseline gates the stricter 10x figure on the numba-enabled CI
#: bench job, where a JIT silently falling back to the generated
#: Python loop fails the gate.
MIN_KERNEL_SPEEDUP = 5.0


def _montecarlo_study(vectorized: bool) -> CmffMonteCarlo:
    return CmffMonteCarlo(
        mismatch=PelgromMismatch(rng=np.random.default_rng(42)),
        n_trials=N_TRIALS,
        vectorized=vectorized,
    )


def test_bench_runtime_speedup_montecarlo(benchmark):
    t0 = time.perf_counter()
    scalar_results = _montecarlo_study(vectorized=False).area_sweep(AREAS_UM2)
    scalar_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    vector_results = _montecarlo_study(vectorized=True).area_sweep(AREAS_UM2)
    vector_s = time.perf_counter() - t0
    speedup = scalar_s / vector_s

    run_once(
        benchmark,
        lambda: _montecarlo_study(vectorized=True).area_sweep(AREAS_UM2),
        n_samples=len(AREAS_UM2) * N_TRIALS,
        extra={"speedup": speedup, "scalar_wall_s": scalar_s},
    )

    table = Table(
        f"CMFF Monte Carlo, {len(AREAS_UM2)} areas x {N_TRIALS} trials",
        ("path", "wall", "speedup"),
    )
    table.add_row("scalar loop", f"{scalar_s:.3f} s", "1.0x")
    table.add_row("vectorized", f"{vector_s:.3f} s", f"{speedup:.1f}x")
    print()
    print(table.render())

    comparison = PaperComparison()
    comparison.add(
        "runtime engine",
        "vectorized MC identical to scalar loop",
        "bit-identical summaries",
        "identical" if vector_results == scalar_results else "DIVERGED",
        vector_results == scalar_results,
    )
    comparison.add(
        "runtime engine",
        "vectorized MC wall-time win",
        f">= {MIN_SPEEDUP:.0f}x",
        f"{speedup:.1f}x",
        speedup >= MIN_SPEEDUP,
    )
    print(comparison.render())

    benchmark.extra_info["speedup"] = speedup
    assert comparison.all_shapes_hold


def test_bench_runtime_speedup_kernel(benchmark):
    """Compiled kernel tier vs the scalar loop on one full-length run."""
    frequency = coherent_frequency(2e3, MODULATOR_CLOCK, KERNEL_SAMPLES)
    t = np.arange(KERNEL_SAMPLES) / MODULATOR_CLOCK
    stimulus = 3e-6 * np.sin(2.0 * np.pi * frequency * t)

    def fresh_modulator() -> SIModulator2:
        # A fresh device per run keeps every noise stream at its origin,
        # so the two paths consume identical draws and must agree bytewise.
        return SIModulator2(
            cell_config=paper_cell_config(sample_rate=MODULATOR_CLOCK)
        )

    t0 = time.perf_counter()
    with force_scalar():
        scalar_out = fresh_modulator()(stimulus)
    scalar_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    with use_engine("kernel"):
        kernel_out = fresh_modulator()(stimulus)
    kernel_s = time.perf_counter() - t0
    speedup = scalar_s / kernel_s

    def kernel_run():
        with use_engine("kernel"):
            return fresh_modulator()(stimulus)

    run_once(
        benchmark,
        kernel_run,
        n_samples=KERNEL_SAMPLES,
        extra={"speedup": speedup, "scalar_wall_s": scalar_s},
    )

    table = Table(
        f"modulator-2 single run, {KERNEL_SAMPLES} samples "
        f"(JIT: {jit_status()})",
        ("path", "wall", "speedup"),
    )
    table.add_row("scalar loop", f"{scalar_s:.2f} s", "1.0x")
    table.add_row("kernel tier", f"{kernel_s:.2f} s", f"{speedup:.1f}x")
    print()
    print(table.render())

    comparison = PaperComparison()
    comparison.add(
        "kernel tier",
        "kernel run identical to scalar loop",
        "bit-identical output",
        "identical" if kernel_out.tobytes() == scalar_out.tobytes() else "DIVERGED",
        kernel_out.tobytes() == scalar_out.tobytes(),
    )
    comparison.add(
        "kernel tier",
        "kernel wall-time win",
        f">= {MIN_KERNEL_SPEEDUP:.0f}x",
        f"{speedup:.1f}x",
        speedup >= MIN_KERNEL_SPEEDUP,
    )
    print(comparison.render())

    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["jit_status"] = jit_status()
    assert comparison.all_shapes_hold


def test_bench_runtime_speedup_snr_sweep(benchmark):
    levels = tuple(float(x) for x in np.linspace(-50.0, 0.0, SWEEP_LANES))
    frequency = coherent_frequency(2e3, MODULATOR_CLOCK, SWEEP_SAMPLES)

    # force_scalar pins the per-sample parity oracle: without it the
    # lane runs would take the single-run fast path, and the measured
    # figure would be batch-vs-fast-path, not batch-vs-scalar-loop.
    t0 = time.perf_counter()
    modulator = SIModulator2(
        cell_config=paper_cell_config(sample_rate=MODULATOR_CLOCK)
    )
    with force_scalar():
        scalar_result = run_amplitude_sweep(
            modulator,
            levels_db=list(levels),
            full_scale=MODULATOR_FULL_SCALE,
            signal_frequency=frequency,
            sample_rate=MODULATOR_CLOCK,
            n_samples=SWEEP_SAMPLES,
            bandwidth=SIGNAL_BANDWIDTH,
            settle_samples=256,
        )
    scalar_s = time.perf_counter() - t0

    spec = sweep_spec_for_design(
        "modulator2", n_samples=2 * SWEEP_SAMPLES, levels_db=levels
    )
    # Pinned: under ``auto`` a --jobs 4 plan cuts shards of at most 17
    # lanes, which the crossover sends to the kernel rung, so the
    # figure would never measure the batch engine it names.
    def batch_sweep():
        with use_engine("batch"):
            return run_sweep(spec, executor=SweepExecutor(jobs=4))

    t0 = time.perf_counter()
    batch_result = batch_sweep()
    batch_s = time.perf_counter() - t0
    speedup = scalar_s / batch_s

    run_once(
        benchmark,
        batch_sweep,
        n_samples=SWEEP_LANES * (SWEEP_SAMPLES + 256),
        extra={"speedup": speedup, "scalar_wall_s": scalar_s},
    )

    table = Table(
        f"modulator-2 SNDR sweep, {SWEEP_LANES} lanes x "
        f"{SWEEP_SAMPLES} samples (--jobs 4)",
        ("path", "wall", "speedup"),
    )
    table.add_row("scalar loop", f"{scalar_s:.2f} s", "1.0x")
    table.add_row("batch engine", f"{batch_s:.2f} s", f"{speedup:.1f}x")
    print()
    print(table.render())

    identical = (
        scalar_result.metrics == batch_result.metrics
        and np.array_equal(scalar_result.sndr_db, batch_result.sndr_db)
    )
    comparison = PaperComparison()
    comparison.add(
        "runtime engine",
        "batch sweep identical to scalar sweep",
        "bit-identical metrics",
        "identical" if identical else "DIVERGED",
        identical,
    )
    comparison.add(
        "runtime engine",
        "batch sweep wall-time win",
        f">= {MIN_SPEEDUP:.0f}x",
        f"{speedup:.1f}x",
        speedup >= MIN_SPEEDUP,
    )
    print(comparison.render())

    benchmark.extra_info["speedup"] = speedup
    assert comparison.all_shapes_hold
