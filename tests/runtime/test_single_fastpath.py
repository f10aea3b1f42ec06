"""Bit-exact equivalence of single device runs against the scalar loops.

Every device ``run`` method first tries :func:`run_single`, which runs
the compiled kernel; its whole contract is byte-identity with the
per-sample scalar loop, which stays in the tree as the parity oracle
behind :func:`force_scalar`.  These tests assert that contract with
``tobytes()`` across every supported device and every randomised
element (cell noise, flicker, quantizer metastability, DAC reference
noise), plus the live-stream property: state and stream continuation
across sequential runs on one device.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.config import (
    MODULATOR_CLOCK,
    delay_line_cell_config,
    paper_cell_config,
)
from repro.deltasigma import (
    ChopperStabilizedSIModulator,
    SIModulator1,
    SIModulator2,
)
from repro.deltasigma.dac import FeedbackDac
from repro.deltasigma.quantizer import CurrentQuantizer
from repro.designs import DESIGNS
from repro.runtime.engine import consume_fallbacks, force_scalar, run_single
from repro.si import DelayLine
from repro.si.cascade import BiquadCascade
from repro.si.memory_cell import ClassABMemoryCell
from repro.telemetry.session import TelemetrySession

N_STEPS = 400


def _stimulus(n_steps: int = N_STEPS, amplitude: float = 3e-6) -> np.ndarray:
    t = np.arange(n_steps)
    return amplitude * np.sin(2.0 * np.pi * 13.0 * t / n_steps)


def _paper_config(**overrides):
    return replace(paper_cell_config(sample_rate=MODULATOR_CLOCK), **overrides)


def _degraded_quantizer() -> CurrentQuantizer:
    return CurrentQuantizer(
        offset=1e-8, hysteresis=2e-8, metastability_band=8e-8, seed=21
    )


def _degraded_dac() -> FeedbackDac:
    return FeedbackDac(level_mismatch=0.02, reference_noise_rms=3e-8, seed=31)



def _drive(device, stimulus: np.ndarray) -> np.ndarray:
    """Run a device from a fresh state (not every device is callable)."""
    if callable(device):
        return device(stimulus)
    device.reset()
    return device.run(stimulus)

def _assert_fast_matches_scalar(make_device, stimulus: np.ndarray) -> None:
    """Assert a fresh device's fast-path run is byte-identical to scalar."""
    scalar_device = make_device()
    with force_scalar():
        scalar = _drive(scalar_device, stimulus)
    fast_device = make_device()
    fast = _drive(fast_device, stimulus)
    assert fast.tobytes() == scalar.tobytes()


DEVICE_FACTORIES = {
    "memory-cell": lambda: ClassABMemoryCell(
        _paper_config(half_gain_mismatch=0.01)
    ),
    "delay-line": lambda: DelayLine(delay_line_cell_config(), n_cells=2),
    "cascade": lambda: BiquadCascade(
        center_frequency=10e3,
        n_sections=2,
        sample_rate=MODULATOR_CLOCK,
        config=_paper_config(),
    ),
    "modulator1": lambda: SIModulator1(cell_config=_paper_config()),
    "modulator2": lambda: SIModulator2(cell_config=_paper_config()),
    "chopper": lambda: ChopperStabilizedSIModulator(cell_config=_paper_config()),
}


class TestFastPathEquivalence:
    @pytest.mark.parametrize("name", sorted(DEVICE_FACTORIES))
    def test_device_bit_identical(self, name):
        _assert_fast_matches_scalar(DEVICE_FACTORIES[name], _stimulus())

    def test_modulator2_metastability_and_dac_noise(self):
        _assert_fast_matches_scalar(
            lambda: SIModulator2(
                cell_config=_paper_config(half_gain_mismatch=0.005),
                quantizer=_degraded_quantizer(),
                dac=_degraded_dac(),
            ),
            _stimulus(),
        )

    def test_chopper_metastability_and_dac_noise(self):
        _assert_fast_matches_scalar(
            lambda: ChopperStabilizedSIModulator(
                cell_config=_paper_config(),
                quantizer=_degraded_quantizer(),
                dac=_degraded_dac(),
            ),
            _stimulus(),
        )

    def test_modulator1_metastability_and_dac_noise(self):
        _assert_fast_matches_scalar(
            lambda: SIModulator1(
                cell_config=_paper_config(),
                quantizer=_degraded_quantizer(),
                dac=_degraded_dac(),
            ),
            _stimulus(),
        )

    def test_noiseless_unseeded_cell_still_fast(self):
        # No randomness at all: the fast path needs no stream replay,
        # so even an unseeded config must not fall back.
        config = _paper_config(
            seed=None, thermal_noise_rms=0.0, flicker_corner_hz=0.0
        )
        consume_fallbacks()
        output = ClassABMemoryCell(config).run(_stimulus())
        assert consume_fallbacks() == []
        with force_scalar():
            scalar = ClassABMemoryCell(config).run(_stimulus())
        assert output.tobytes() == scalar.tobytes()


class TestStreamContinuation:
    """Sequential runs on one device keep consuming the live streams."""

    @pytest.mark.parametrize("name", sorted(DEVICE_FACTORIES))
    def test_two_runs_match_scalar_two_runs(self, name):
        first = _stimulus()
        second = _stimulus(amplitude=1e-6)

        scalar_device = DEVICE_FACTORIES[name]()
        with force_scalar():
            scalar_a = _drive(scalar_device, first)
            scalar_b = _drive(scalar_device, second)

        fast_device = DEVICE_FACTORIES[name]()
        fast_a = _drive(fast_device, first)
        fast_b = _drive(fast_device, second)

        assert fast_a.tobytes() == scalar_a.tobytes()
        assert fast_b.tobytes() == scalar_b.tobytes()

    def test_interleaved_fast_and_scalar_runs(self):
        # The fast path consumes the same stream draws as the scalar
        # loop, so the two can alternate on one device without
        # diverging from an all-scalar reference.
        stimulus = _stimulus()
        make = DEVICE_FACTORIES["modulator2"]

        reference = make()
        with force_scalar():
            expected = [reference(stimulus) for _ in range(3)]

        device = make()
        first = device(stimulus)
        with force_scalar():
            second = device(stimulus)
        third = device(stimulus)

        assert first.tobytes() == expected[0].tobytes()
        assert second.tobytes() == expected[1].tobytes()
        assert third.tobytes() == expected[2].tobytes()


class TestProbedFastPath:
    def test_probe_statistics_match_scalar(self):
        stimulus = _stimulus()

        scalar_session = TelemetrySession("fast-probe-scalar")
        scalar_device = DEVICE_FACTORIES["modulator2"]()
        scalar_device.attach_telemetry(scalar_session)
        with force_scalar():
            scalar = _drive(scalar_device, stimulus)

        fast_session = TelemetrySession("fast-probe-fast")
        fast_device = DEVICE_FACTORIES["modulator2"]()
        fast_device.attach_telemetry(fast_session)
        fast = _drive(fast_device, stimulus)

        assert fast.tobytes() == scalar.tobytes()
        assert sorted(fast_session.probes) == sorted(scalar_session.probes)
        for name, expected in scalar_session.probes.items():
            lowered = fast_session.probes[name]
            assert lowered.count == expected.count
            assert lowered.minimum == expected.minimum
            assert lowered.maximum == expected.maximum
            assert lowered.clip_fraction == expected.clip_fraction
            assert lowered.rms == pytest.approx(expected.rms, rel=1e-12)


class TestZeroFallbacks:
    @pytest.mark.parametrize(
        "name", sorted(name for name, design in DESIGNS.items() if design.operating_point)
    )
    def test_baseline_design_never_falls_back(self, name):
        # The tentpole's regression guard: every `repro` verb's design
        # must run on the fast path, so a run that quietly drops to the
        # scalar loop is a bug, not a slowdown.
        device = DESIGNS[name].build()
        point = DESIGNS[name].point
        t = np.arange(1024)
        stimulus = point.amplitude * np.sin(
            2.0 * np.pi * point.frequency * t / point.sample_rate
        )
        consume_fallbacks()
        device(stimulus)
        assert consume_fallbacks() == []

    def test_probed_baseline_design_never_falls_back(self):
        device = DESIGNS["modulator2"].build()
        device.attach_telemetry(TelemetrySession("fallback-guard"))
        consume_fallbacks()
        device(_stimulus(1024))
        assert consume_fallbacks() == []

    def test_unknown_device_is_noted(self):
        consume_fallbacks()
        assert run_single(object(), np.zeros(4)) is None
        notes = consume_fallbacks()
        assert len(notes) == 1
        assert "object" in notes[0]

    def test_force_scalar_disables_fast_path(self):
        device = DEVICE_FACTORIES["memory-cell"]()
        with force_scalar():
            assert run_single(device, np.zeros(4)) is None
        # force_scalar is not a fallback: the caller asked for scalar.
        assert consume_fallbacks() == []
