"""The compiled layouts' working set: whole-run arrays plus one block.

Both layouts run over blocks of ``BLOCK_STEPS`` periods, so a run holds
its stimulus-derived rows, its stream draws and its output whole, and
only one block of step-major rows (the lane layout) or of Python float
lists (the scalar layout, about 32 bytes per element).  That traces
3.8 times a 33-lane run's output and 8.3 times a 64K kernel run's.
Every row of a run held at once traces 7.3 and 33 times: the bounds
sit between.
"""

import tracemalloc

import numpy as np

from repro.designs import resolve
from repro.runtime.batch import batch_runner_for
from repro.runtime.kernels import run_kernel


def _traced_peak_ratio(run) -> float:
    """Return the traced peak of ``run()`` over its output's size."""
    tracemalloc.start()
    try:
        out = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / out.nbytes


def test_a_wide_lane_run_holds_one_block_of_rows():
    # perfbench's sweep-wide shard: 33 lanes of 16,640 periods.
    n_lanes, n_steps = 33, 16_640
    levels = 10.0 ** (np.linspace(-50.0, 0.0, n_lanes) / 20.0)
    stimuli = 6e-6 * levels[:, None] * np.sin(0.01 * np.arange(n_steps))[None, :]
    runner = batch_runner_for(resolve("modulator2").build(), n_lanes, n_steps)
    assert _traced_peak_ratio(lambda: runner.run(stimuli)) < 4.5


def test_a_64k_kernel_run_holds_one_block_of_lists():
    # The paper's 64K FFT length, a report's default.
    n = 1 << 16
    data = 3e-6 * np.sin(0.01 * np.arange(n))
    run_kernel(resolve("modulator2").build(), data[:64])  # compile untraced
    device = resolve("modulator2").build()
    assert _traced_peak_ratio(lambda: run_kernel(device, data)) < 12.0
