"""The kernel contract on adversarial stimuli, for every design, bit for bit.

The scalar layout computes input-only work once per run in a NumPy
prologue and folds bookkeeping at generation time (the folding rules
of :mod:`repro.runtime.kernels.codegen`).  Those are exactly the places
where a ``-0.0``, an infinity or a NaN payload could part from the
scalar oracle, so each runnable catalog design and a lone memory cell
is driven as twins -- one through :func:`run_kernel`, one under
``force_scalar()`` -- and the outputs and the returned states are
compared by their bytes, which also holds a NaN state to itself.

Both compiled layouts run over blocks of ``BLOCK_STEPS`` periods, so
the same twins also run every length around a block boundary, on the
kernel rung and on a 3-lane lane layout.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.config import paper_cell_config
from repro.deltasigma.dac import FeedbackDac
from repro.deltasigma.dither import DitheredQuantizer
from repro.designs import design_names, resolve
from repro.runtime.batch import batch_runner_for
from repro.runtime.engine import force_scalar
from repro.runtime.kernels import device_parts, run_kernel
from repro.runtime.kernels.runner import BLOCK_STEPS
from repro.runtime.kernels.spec import drawn_streams
from repro.si.memory_cell import ClassABMemoryCell
from repro.telemetry.session import TelemetrySession

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


#: Run lengths on and around the compiled layouts' block boundaries.
BLOCK_LENGTHS = (1, BLOCK_STEPS - 1, BLOCK_STEPS, BLOCK_STEPS + 1, 2 * BLOCK_STEPS + 3)


def _every_stream(noise_scale: float) -> object:
    """Modulator2 drawing every loop stream: metastability, dither, DAC noise."""
    device = resolve("modulator2").build(noise_scale)
    device.quantizer = DitheredQuantizer(
        2e-7, offset=1e-8, hysteresis=2e-9, metastability_band=5e-8, seed=11
    )
    device.dac = FeedbackDac(device.full_scale, reference_noise_rms=3e-8, seed=5)
    return device


#: Each runnable catalog design once, and a loop that reads every stream.
BLOCK_BUILDERS = {
    **{name: BUILDERS[name] for name in {resolve(n).name for n in design_names(runnable=True)}},
    "modulator2-every-stream": _every_stream,
}


def _across_blocks(n: int, lanes: int = 1) -> np.ndarray:
    """``lanes`` tones that overload every stage around each block edge."""
    t = np.arange(n)
    data = 3e-6 * np.cos(2.0 * np.pi * 5.0 * t / 997.0)
    for edge in range(BLOCK_STEPS, n, BLOCK_STEPS):
        data[edge - 2 : edge + 2] *= 40.0
    return np.linspace(1.0, 0.25, lanes)[:, None] * data[None, :]


def _next_draws(device: object) -> list[float]:
    """The next value of every stream a run draws from: their positions."""
    noise, loop = drawn_streams(device)
    return [stream.next() for stream in [*noise, *loop.values()]]


@pytest.mark.parametrize("n", BLOCK_LENGTHS)
@pytest.mark.parametrize("design", sorted(BLOCK_BUILDERS))
def test_kernel_rung_matches_scalar_oracle_across_blocks(design, n):
    kernel, scalar = (BLOCK_BUILDERS[design](1.0) for _ in range(2))
    data = _across_blocks(n)[0]
    got = run_kernel(kernel, data)
    with force_scalar():
        want = scalar.run(data)
    assert got.tobytes() == want.tobytes()
    assert _state(kernel) == _state(scalar)
    assert _next_draws(kernel) == _next_draws(scalar)


def _lane_oracle(device: object, stimuli: np.ndarray) -> np.ndarray:
    """Run the lanes one after another on one device, reset between them."""
    want = np.empty_like(stimuli)
    with force_scalar():
        for lane, row in enumerate(stimuli):
            device.reset()
            want[lane] = device.run(row)
    return want


@pytest.mark.parametrize("n", BLOCK_LENGTHS)
@pytest.mark.parametrize("design", sorted(BLOCK_BUILDERS))
def test_lane_layout_matches_scalar_oracle_across_blocks(design, n):
    lanes, scalar = (BLOCK_BUILDERS[design](1.0) for _ in range(2))
    stimuli = _across_blocks(n, lanes=3)
    got = batch_runner_for(lanes, 3, n).run(stimuli)
    assert got.tobytes() == _lane_oracle(scalar, stimuli).tobytes()
    assert _next_draws(lanes) == _next_draws(scalar)


def _probe_records(session: TelemetrySession) -> dict[str, dict[str, object]]:
    return {name: probe.as_record() for name, probe in session.probes.items()}


def test_probed_lane_layout_matches_scalar_oracle_across_blocks():
    # Probe buffers stay whole while the blocks view them, and are
    # observed lane-major after the run.  Sums agree to summation-order
    # rounding (observe_array sums pairwise); everything else exactly.
    n = 2 * BLOCK_STEPS + 3
    stimuli = _across_blocks(n, lanes=3)
    devices, sessions = [], []
    for label in ("lanes", "oracle"):
        device = resolve("modulator2").build()
        sessions.append(TelemetrySession(f"blocks-{label}"))
        device.attach_telemetry(sessions[-1])
        devices.append(device)
    got = batch_runner_for(devices[0], 3, n).run(stimuli)
    assert got.tobytes() == _lane_oracle(devices[1], stimuli).tobytes()
    got_records, want_records = (_probe_records(session) for session in sessions)
    assert sorted(got_records) == sorted(want_records)
    assert len(got_records) > 2  # the stage probes, not only input/bitstream
    for name, want in want_records.items():
        got = got_records[name]
        for key in ("mean", "rms"):
            assert math.isclose(got.pop(key), want.pop(key), rel_tol=1e-12), (name, key)
        assert got == want, name
