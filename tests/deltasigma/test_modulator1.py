"""Tests for the first-order SI modulator baseline."""

import numpy as np
import pytest

from repro.analysis.metrics import measure_tone
from repro.analysis.spectrum import compute_spectrum
from repro.deltasigma.modulator1 import SIModulator1
from repro.deltasigma.modulator2 import SIModulator2
from repro.designs import resolve
from repro.errors import ConfigurationError
from repro.runtime.kernels import build_spec, loop_transfer

FS = 2.45e6


def coherent_tone(amplitude, cycles, n):
    t = np.arange(n)
    return amplitude * np.sin(2.0 * np.pi * cycles * t / n)


class TestBasics:
    def test_order(self, cell_config):
        assert SIModulator1(cell_config).order == 1

    def test_default_coefficients_first_order_transfer(self):
        # Eq. (3)'s first-order analogue: STF z^-1, NTF 1 - z^-1.
        stf, ntf = loop_transfer(build_spec(resolve("modulator1").build()), 6)
        np.testing.assert_allclose(stf, [0, 1, 0, 0, 0, 0], atol=1e-12)
        np.testing.assert_allclose(ntf, [1, -1, 0, 0, 0, 0], atol=1e-12)

    def test_output_levels_binary(self, ideal_config):
        y = SIModulator1(ideal_config)(coherent_tone(3e-6, 7, 1024))
        assert set(np.unique(y)) <= {-6e-6, 6e-6}

    def test_dc_tracking(self, ideal_config):
        y = SIModulator1(ideal_config)(np.full(1 << 13, 2e-6))
        assert float(np.mean(y[500:])) == pytest.approx(2e-6, rel=0.05)

    def test_tone_recovered(self, cell_config):
        n = 1 << 14
        modulator = SIModulator1(cell_config)
        y = modulator(coherent_tone(3e-6, 7, n))
        spectrum = compute_spectrum(y, FS)
        metrics = measure_tone(
            spectrum, fundamental_frequency=7 * FS / n, bandwidth=20e3
        )
        assert metrics.signal_amplitude == pytest.approx(3e-6, rel=0.05)

    def test_reproducible(self, cell_config):
        x = coherent_tone(3e-6, 7, 512)
        np.testing.assert_array_equal(
            SIModulator1(cell_config)(x), SIModulator1(cell_config)(x)
        )

    @pytest.mark.parametrize(
        "kwargs", [{"full_scale": 0.0}, {"a": 0.0}]
    )
    def test_validation(self, kwargs, cell_config):
        with pytest.raises(ConfigurationError):
            SIModulator1(cell_config, **kwargs)

    def test_rejects_2d(self, cell_config):
        with pytest.raises(ConfigurationError):
            SIModulator1(cell_config).run(np.zeros((2, 2)))


class TestOrderComparison:
    def test_second_order_shapes_harder(self, ideal_config):
        # In a fixed in-band fraction, the second-order loop leaves far
        # less quantisation noise than the first-order one.
        n = 1 << 14
        x = coherent_tone(3e-6, 13, n)
        f0 = 13 * FS / n

        def inband_sndr(modulator):
            spectrum = compute_spectrum(modulator(x), FS)
            return measure_tone(
                spectrum, fundamental_frequency=f0, bandwidth=10e3
            ).sndr_db

        first = inband_sndr(SIModulator1(ideal_config))
        second = inband_sndr(SIModulator2(ideal_config))
        assert second > first + 15.0

    def test_first_order_slope_is_9db_per_octave_band(self, ideal_config):
        # Halving the analysis bandwidth gains ~9 dB for first order
        # (vs 15 dB for second order).
        n = 1 << 15
        x = coherent_tone(3e-6, 13, n)
        f0 = 13 * FS / n
        modulator = SIModulator1(ideal_config)
        spectrum = compute_spectrum(modulator(x), FS)
        wide = measure_tone(
            spectrum, fundamental_frequency=f0, bandwidth=40e3
        ).snr_db
        narrow = measure_tone(
            spectrum, fundamental_frequency=f0, bandwidth=20e3
        ).snr_db
        assert narrow - wide == pytest.approx(9.0, abs=3.0)
