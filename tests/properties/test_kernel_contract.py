"""The kernel contract on adversarial stimuli, for every design, bit for bit.

The scalar layout computes input-only work once per run in a NumPy
prologue and folds bookkeeping at generation time (the folding rules
of :mod:`repro.runtime.kernels.codegen`).  Those are exactly the places
where a ``-0.0``, an infinity or a NaN payload could part from the
scalar oracle, so each runnable catalog design and a lone memory cell
is driven as twins -- one through :func:`run_kernel`, one under
``force_scalar()`` -- and the outputs and the returned states are
compared by their bytes, which also holds a NaN state to itself.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.config import paper_cell_config
from repro.designs import design_names, resolve
from repro.runtime.engine import force_scalar
from repro.runtime.kernels import device_parts, run_kernel
from repro.si.memory_cell import ClassABMemoryCell

N = 48
TONE = 3e-6 * np.sin(2.0 * np.pi * 3.0 * np.arange(N) / N)


def _burst(value: float) -> np.ndarray:
    """The tone with four samples of ``value`` in the middle."""
    data = TONE.copy()
    data[16:20] = value
    return data


STIMULI = {
    "negative-zero": np.full(N, -0.0),
    "plus-inf": _burst(np.inf),
    "minus-inf": _burst(-np.inf),
    "nan": _burst(np.nan),
    "subnormal": _burst(5e-324),
    "negative-subnormal": _burst(-5e-324),
    "plus-1e300": _burst(1e300),
    "minus-1e300": _burst(-1e300),
    # Forty times the tone: every cell slews, both regimes.
    "overload": 40.0 * TONE,
}


def _cell(noise_scale: float) -> ClassABMemoryCell:
    config = paper_cell_config()
    return ClassABMemoryCell(
        replace(config, thermal_noise_rms=config.thermal_noise_rms * noise_scale)
    )


#: A fresh device per name, at a noise scale.
BUILDERS = {
    **{
        name: (lambda noise_scale, name=name: resolve(name).build(noise_scale))
        for name in design_names(runnable=True)
    },
    "cell": _cell,
}


def _state(device: object) -> tuple[bytes, list[tuple[int, int]], int | None]:
    """Every stored half, the step and slew counts, and the last decision."""
    stages, quantizer, _ = device_parts(device)
    stored = np.array([v for cell, _ in stages for v in (cell._stored.pos, cell._stored.neg)])
    counts = [(cell._steps, cell._slew_events) for cell, _ in stages]
    return stored.tobytes(), counts, None if quantizer is None else quantizer._last_decision


@pytest.mark.parametrize("noise_scale", [0.0, 1.0])
@pytest.mark.parametrize("stimulus", sorted(STIMULI))
@pytest.mark.parametrize("design", sorted(BUILDERS))
def test_kernel_matches_scalar_oracle_bit_for_bit(design, stimulus, noise_scale):
    kernel, scalar = (BUILDERS[design](noise_scale) for _ in range(2))
    # The adversarial run, then a plain one from the state it left.
    for data in (STIMULI[stimulus], TONE):
        got = run_kernel(kernel, data)
        with force_scalar():
            want = scalar.run(data)
        assert got.tobytes() == want.tobytes()
        assert _state(kernel) == _state(scalar)
