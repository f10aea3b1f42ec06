"""Extension: wall-time of a single lowered run vs the scalar loop.

The single-run engine (:func:`repro.runtime.engine.run_single`, which
runs the compiled kernel) is what ``repro report``, the
:class:`~repro.systems.TestBench` and every telemetry design run
through; its contract is byte-identity with the per-sample scalar loop
at a large wall-time win.  This bench measures
both for each baseline design, plus the polyphase
:class:`~repro.deltasigma.decimator.SincDecimator` against its
full-rate convolution reference at the paper's OSR of 128.

The measured speedups land in ``BENCH_telemetry.json`` where
``repro bench-gate`` enforces the committed floors -- a device ``run``
method quietly dropping back to the scalar loop fails CI, not just
feels slow.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import run_once
from repro.deltasigma.decimator import SincDecimator
from repro.designs import DESIGNS
from repro.observability.instruments import InstrumentRegistry, use_registry
from repro.reporting.records import PaperComparison
from repro.reporting.tables import Table
from repro.runtime.engine import force_scalar

#: Floor on the fast-path-vs-scalar speedup every design asserts (the
#: committed ``baselines/bench.json`` gates the same figure in CI).
MIN_SPEEDUP = 3.0

#: Floor on the polyphase-vs-convolution decimator speedup.
MIN_DECIMATOR_SPEEDUP = 5.0

#: Samples per single run -- the ``repro report --fast`` workload.
N_SAMPLES = 1 << 14


def _design_stimulus(name: str) -> np.ndarray:
    point = DESIGNS[name].point
    t = np.arange(N_SAMPLES)
    return point.amplitude * np.sin(
        2.0 * np.pi * point.frequency * t / point.sample_rate
    )


def _run_single_run_bench(benchmark, design: str) -> None:
    setup = DESIGNS[design]
    stimulus = _design_stimulus(design)

    scalar_device = setup.build()
    t0 = time.perf_counter()
    with force_scalar():
        scalar_output = scalar_device(stimulus)
    scalar_s = time.perf_counter() - t0

    fast_device = setup.build()
    with use_registry(InstrumentRegistry()) as scope:
        t0 = time.perf_counter()
        fast_output = fast_device(stimulus)
        fast_s = time.perf_counter() - t0
    fallbacks = int(scope.total("repro.single.fallbacks"))
    speedup = scalar_s / fast_s

    run_once(
        benchmark,
        lambda: setup.build()(stimulus),
        n_samples=N_SAMPLES,
        extra={"speedup": speedup, "scalar_wall_s": scalar_s},
    )

    table = Table(
        f"{design}: single run, {N_SAMPLES} samples",
        ("path", "wall", "speedup"),
    )
    table.add_row("scalar loop", f"{scalar_s * 1e3:.1f} ms", "1.0x")
    table.add_row("fast path", f"{fast_s * 1e3:.1f} ms", f"{speedup:.1f}x")
    print()
    print(table.render())

    comparison = PaperComparison()
    comparison.add(
        "runtime engine",
        f"{design} fast path identical to scalar loop",
        "bit-identical output",
        "identical"
        if fast_output.tobytes() == scalar_output.tobytes()
        else "DIVERGED",
        fast_output.tobytes() == scalar_output.tobytes(),
    )
    comparison.add(
        "runtime engine",
        f"{design} fast path engaged (no fallback)",
        "0 fallbacks",
        f"{fallbacks} fallbacks",
        not fallbacks,
    )
    comparison.add(
        "runtime engine",
        f"{design} single-run wall-time win",
        f">= {MIN_SPEEDUP:.0f}x",
        f"{speedup:.1f}x",
        speedup >= MIN_SPEEDUP,
    )
    print(comparison.render())

    benchmark.extra_info["speedup"] = speedup
    assert comparison.all_shapes_hold


@pytest.mark.parametrize(
    "design", sorted(name for name, entry in DESIGNS.items() if entry.operating_point)
)
def test_bench_single_run(benchmark, design):
    _run_single_run_bench(benchmark, design)


def test_bench_decimator(benchmark):
    ratio, order = 128, 3
    rng = np.random.default_rng(7)
    bitstream = rng.choice([-1.0, 1.0], size=1 << 17)
    decimator = SincDecimator(ratio, order=order)

    t0 = time.perf_counter()
    reference = decimator._process_reference(bitstream)
    reference_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    polyphase = decimator.process(bitstream)
    polyphase_s = time.perf_counter() - t0
    speedup = reference_s / polyphase_s

    run_once(
        benchmark,
        lambda: decimator.process(bitstream),
        n_samples=bitstream.shape[0],
        extra={"speedup": speedup, "scalar_wall_s": reference_s},
    )

    table = Table(
        f"sinc^{order} decimator, OSR {ratio}, {bitstream.shape[0]} samples",
        ("path", "wall", "speedup"),
    )
    table.add_row("full-rate convolution", f"{reference_s * 1e3:.2f} ms", "1.0x")
    table.add_row("polyphase", f"{polyphase_s * 1e3:.2f} ms", f"{speedup:.1f}x")
    print()
    print(table.render())

    comparison = PaperComparison()
    comparison.add(
        "decimator",
        "polyphase matches full-rate convolution",
        "<= 1e-12 relative",
        f"{float(np.max(np.abs(polyphase - reference))):.2e} absolute",
        np.allclose(polyphase, reference, rtol=1e-12, atol=1e-15),
    )
    comparison.add(
        "decimator",
        "polyphase wall-time win at OSR 128",
        f">= {MIN_DECIMATOR_SPEEDUP:.0f}x",
        f"{speedup:.1f}x",
        speedup >= MIN_DECIMATOR_SPEEDUP,
    )
    print(comparison.render())

    benchmark.extra_info["speedup"] = speedup
    assert comparison.all_shapes_hold
