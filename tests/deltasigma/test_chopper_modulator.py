"""Tests for the Fig. 3(b) chopper-stabilised SI modulator."""

import numpy as np
import pytest

from repro.analysis.metrics import measure_tone
from repro.analysis.spectrum import compute_spectrum
from repro.deltasigma.chopper_modulator import ChopperStabilizedSIModulator
from repro.deltasigma.ideal import IdealSecondOrderModulator
from repro.designs import resolve
from repro.errors import ConfigurationError
from repro.runtime.kernels import build_spec, loop_transfer

FS = 2.45e6


def coherent_tone(amplitude, cycles, n):
    t = np.arange(n)
    return amplitude * np.sin(2.0 * np.pi * cycles * t / n)


class TestStructure:
    def test_default_coefficients_realize_eq3(self):
        # After the output chopper (z -> -z) the catalog loop's own
        # state space gives Eq. (3): any input passes with two samples
        # of delay.
        stf, ntf = loop_transfer(build_spec(resolve("chopper").build()), 8)
        np.testing.assert_allclose(stf, [0, 0, 1, 0, 0, 0, 0, 0], atol=1e-12)
        np.testing.assert_allclose(ntf, [1, -2, 1, 0, 0, 0, 0, 0], atol=1e-12)

    def test_ideal_cells_match_ideal_modulator(self, ideal_config):
        # The chopped loop's post-chopper output must equal the
        # conventional loop's output exactly when everything is ideal:
        # the z -> -z equivalence at work.
        chop = ChopperStabilizedSIModulator(ideal_config)
        ideal = IdealSecondOrderModulator(full_scale=6e-6)
        x = coherent_tone(3e-6, 7, 1 << 10)
        np.testing.assert_allclose(chop(x), ideal(x), atol=1e-12)

    def test_rejects_bad_parameters(self, cell_config):
        with pytest.raises(ConfigurationError):
            ChopperStabilizedSIModulator(cell_config, full_scale=-1.0)
        with pytest.raises(ConfigurationError):
            ChopperStabilizedSIModulator(cell_config, b2=0.0)

    def test_rejects_2d(self, cell_config):
        with pytest.raises(ConfigurationError):
            ChopperStabilizedSIModulator(cell_config).run(np.zeros((2, 2)))


class TestChopperTranslation:
    def test_raw_output_has_signal_at_high_frequency(self, quiet_cell_config):
        # Fig. 6(a): "the signal has been moved to high frequencies".
        n = 1 << 13
        cycles = 9
        modulator = ChopperStabilizedSIModulator(quiet_cell_config)
        trace = modulator.run(coherent_tone(3e-6, cycles, n), record_states=True)
        spectrum = compute_spectrum(trace.raw_output, FS)
        translated_bin = n // 2 - cycles
        lobe = spectrum.window.main_lobe_bins
        power_at_translation = float(
            np.sum(spectrum.power[translated_bin - lobe : translated_bin + lobe + 1])
        )
        power_at_baseband = float(
            np.sum(spectrum.power[cycles - lobe : cycles + lobe + 1])
        )
        # The baseband bin holds only the shaped quantisation noise
        # (which is largest near DC in the raw stream); the tone sits
        # tens of dB above it at the translated frequency.
        assert power_at_translation > 30.0 * power_at_baseband

    def test_output_chopper_restores_baseband(self, quiet_cell_config):
        # Fig. 6(b): "the signal is at the low frequencies".
        n = 1 << 13
        cycles = 9
        modulator = ChopperStabilizedSIModulator(quiet_cell_config)
        y = modulator(coherent_tone(3e-6, cycles, n))
        spectrum = compute_spectrum(y, FS)
        metrics = measure_tone(
            spectrum, fundamental_frequency=cycles * FS / n, bandwidth=20e3
        )
        assert metrics.signal_amplitude == pytest.approx(3e-6, rel=0.05)

    def test_trace_exposes_both_outputs(self, quiet_cell_config):
        modulator = ChopperStabilizedSIModulator(quiet_cell_config)
        trace = modulator.run(coherent_tone(3e-6, 5, 256), record_states=True)
        # The two streams are chop-related: |raw| == |output| sample
        # by sample, and they differ on odd samples.
        np.testing.assert_allclose(np.abs(trace.raw_output), np.abs(trace.output))
        np.testing.assert_allclose(trace.output[1::2], -trace.raw_output[1::2])
        np.testing.assert_allclose(trace.output[0::2], trace.raw_output[0::2])


class TestSwing:
    def test_swing_claim(self, cell_config):
        # Section IV applies to "both integrators and differentiators".
        modulator = ChopperStabilizedSIModulator(cell_config)
        trace = modulator.run(coherent_tone(3e-6, 13, 1 << 12), record_states=True)
        assert trace.max_state_swing < 2.5 * modulator.full_scale


class TestEquivalenceWithConventional:
    def test_same_sndr_when_thermal_limited(self, cell_config):
        # The paper's negative result: "the chopper stabilized SI
        # modulator did not offer the performance superiority" when the
        # floor is thermal and CDS already handles 1/f.
        from repro.deltasigma.modulator2 import SIModulator2

        n = 1 << 14
        x = coherent_tone(3e-6, 13, n)
        f0 = 13 * FS / n

        def sndr(modulator):
            spectrum = compute_spectrum(modulator(x), FS)
            return measure_tone(
                spectrum, fundamental_frequency=f0, bandwidth=10e3
            ).sndr_db

        si = sndr(SIModulator2(cell_config))
        chop = sndr(ChopperStabilizedSIModulator(cell_config))
        assert abs(si - chop) < 3.0

    def test_reproducible_with_seed(self, cell_config):
        x = coherent_tone(3e-6, 7, 512)
        a = ChopperStabilizedSIModulator(cell_config)(x)
        b = ChopperStabilizedSIModulator(cell_config)(x)
        np.testing.assert_array_equal(a, b)
