"""Tests for the Fig. 3(a) SI delta-sigma modulator."""

import numpy as np
import pytest

from repro.analysis.metrics import measure_tone
from repro.analysis.spectrum import compute_spectrum
from repro.deltasigma.ideal import IdealSecondOrderModulator
from repro.deltasigma.modulator2 import SIModulator2
from repro.designs import resolve
from repro.errors import ConfigurationError
from repro.runtime.kernels import build_spec, loop_transfer

FS = 2.45e6
N = 1 << 13


def coherent_tone(amplitude, cycles, n=N):
    t = np.arange(n)
    return amplitude * np.sin(2.0 * np.pi * cycles * t / n)


class TestStructure:
    def test_default_coefficients_realize_eq3(self):
        # Eq. (3) on the catalog device's own state space: the input
        # passes with two samples of delay, the error through (1-z^-1)^2.
        stf, ntf = loop_transfer(build_spec(resolve("modulator2").build()), 8)
        np.testing.assert_allclose(stf, [0, 0, 1, 0, 0, 0, 0, 0], atol=1e-12)
        np.testing.assert_allclose(ntf, [1, -2, 1, 0, 0, 0, 0, 0], atol=1e-12)

    def test_nonstandard_coefficients_flagged(self, cell_config):
        # b2 != 2 a1 a2: no quantizer gain puts both poles at z = 0, so
        # the signal response rings on past z^-2.
        modulator = SIModulator2(cell_config, a1=0.5, a2=1.0, b2=2.0)
        stf, _ = loop_transfer(build_spec(modulator), 8)
        np.testing.assert_allclose(stf[:5], [0, 0, 0.5, 0, 0.25], atol=1e-12)

    def test_scaled_loop_same_bitstream(self, ideal_config):
        # State-2 scaling freedom: any b2 = 2 a1 a2 gives the identical
        # bit stream -- the basis of the paper's swing optimisation.
        x = coherent_tone(3e-6, 7, 1 << 10)
        a = SIModulator2(ideal_config, a1=0.5, a2=1.0, b2=1.0)(x)
        b = SIModulator2(ideal_config, a1=0.5, a2=2.0, b2=2.0)(x)
        np.testing.assert_array_equal(a, b)

    def test_output_levels_binary(self, ideal_config):
        modulator = SIModulator2(ideal_config)
        y = modulator(coherent_tone(3e-6, 7))
        assert set(np.unique(y)) <= {-6e-6, 6e-6}

    def test_ideal_cells_match_ideal_modulator(self, ideal_config):
        # With every cell nonideality off, the SI loop must reproduce
        # the pure difference-equation loop bit for bit.
        si = SIModulator2(ideal_config)
        ideal = IdealSecondOrderModulator(full_scale=6e-6)
        x = coherent_tone(3e-6, 7, 1 << 10)
        np.testing.assert_allclose(si(x), ideal(x), atol=1e-12)

    def test_rejects_bad_full_scale(self, cell_config):
        with pytest.raises(ConfigurationError):
            SIModulator2(cell_config, full_scale=0.0)

    def test_rejects_bad_coefficients(self, cell_config):
        with pytest.raises(ConfigurationError):
            SIModulator2(cell_config, a1=0.0)

    def test_rejects_2d_stimulus(self, cell_config):
        with pytest.raises(ConfigurationError):
            SIModulator2(cell_config).run(np.zeros((2, 2)))


class TestSignalTransfer:
    def test_dc_tracking(self, ideal_config):
        modulator = SIModulator2(ideal_config)
        y = modulator(np.full(N, 2e-6))
        assert float(np.mean(y[500:])) == pytest.approx(2e-6, rel=0.05)

    def test_tone_recovered_in_band(self, cell_config):
        modulator = SIModulator2(cell_config)
        y = modulator(coherent_tone(3e-6, 7, 1 << 14))
        spectrum = compute_spectrum(y, FS)
        f0 = 7 * FS / (1 << 14)
        metrics = measure_tone(spectrum, fundamental_frequency=f0, bandwidth=20e3)
        assert metrics.signal_amplitude == pytest.approx(3e-6, rel=0.05)


class TestStateRecording:
    def test_trace_shapes(self, cell_config):
        modulator = SIModulator2(cell_config)
        trace = modulator.run(coherent_tone(3e-6, 7, 512), record_states=True)
        assert trace.output.shape == (512,)
        assert trace.decisions.shape == (512,)
        assert trace.state1.shape == (512,)
        assert trace.state2.shape == (512,)

    def test_swing_claim(self, cell_config):
        # Section IV: internal states need "a signal range ... slightly
        # larger than twice the full-scale input range" (checked at the
        # paper's -6 dB operating point).
        modulator = SIModulator2(cell_config)
        trace = modulator.run(coherent_tone(3e-6, 13, 1 << 12), record_states=True)
        assert trace.max_state_swing < 2.5 * modulator.full_scale

    def test_decisions_match_output_sign(self, cell_config):
        modulator = SIModulator2(cell_config)
        trace = modulator.run(coherent_tone(3e-6, 7, 256), record_states=True)
        np.testing.assert_array_equal(np.sign(trace.output), trace.decisions)


class TestNonidealities:
    def test_noise_floor_set_by_cells(self, cell_config, ideal_config):
        def inband_noise(config):
            modulator = SIModulator2(config)
            y = modulator(np.zeros(1 << 13))
            spectrum = compute_spectrum(y, FS)
            return spectrum.band_power(1e3, 10e3)

        assert inband_noise(cell_config) > 10.0 * inband_noise(ideal_config)

    def test_comparator_offset_tolerated(self, quiet_cell_config):
        # The famous second-order robustness: a large comparator offset
        # barely moves the in-band performance.
        from repro.deltasigma.quantizer import CurrentQuantizer

        x = coherent_tone(3e-6, 7, 1 << 13)
        clean = SIModulator2(quiet_cell_config)
        offset = SIModulator2(
            quiet_cell_config, quantizer=CurrentQuantizer(offset=0.5e-6)
        )
        m_clean = measure_tone(
            compute_spectrum(clean(x), FS),
            fundamental_frequency=7 * FS / (1 << 13),
            bandwidth=10e3,
        )
        m_offset = measure_tone(
            compute_spectrum(offset(x), FS),
            fundamental_frequency=7 * FS / (1 << 13),
            bandwidth=10e3,
        )
        assert m_offset.sndr_db > m_clean.sndr_db - 6.0

    def test_reproducible_with_seed(self, cell_config):
        x = coherent_tone(3e-6, 7, 512)
        a = SIModulator2(cell_config)(x)
        b = SIModulator2(cell_config)(x)
        np.testing.assert_array_equal(a, b)
