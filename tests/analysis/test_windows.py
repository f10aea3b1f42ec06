"""Tests for window functions and their metrological constants."""

from unittest import mock

import numpy as np
import pytest

from repro.analysis.spectrum import compute_spectrum
from repro.analysis.windows import Window, WindowKind, make_window
from repro.errors import AnalysisError


class TestRectangular:
    def test_coherent_gain_is_one(self):
        window = make_window(WindowKind.RECTANGULAR, 1024)
        assert window.coherent_gain == pytest.approx(1.0)

    def test_enbw_is_one_bin(self):
        window = make_window(WindowKind.RECTANGULAR, 1024)
        assert window.enbw_bins == pytest.approx(1.0)


class TestHann:
    def test_coherent_gain(self):
        window = make_window(WindowKind.HANN, 4096)
        assert window.coherent_gain == pytest.approx(0.5, abs=0.001)

    def test_enbw(self):
        window = make_window(WindowKind.HANN, 4096)
        assert window.enbw_bins == pytest.approx(1.5, abs=0.01)


class TestBlackman:
    def test_coherent_gain(self):
        # The paper's window: Blackman, CG = 0.42.
        window = make_window(WindowKind.BLACKMAN, 1 << 16)
        assert window.coherent_gain == pytest.approx(0.42, abs=0.001)

    def test_enbw(self):
        window = make_window(WindowKind.BLACKMAN, 1 << 16)
        assert window.enbw_bins == pytest.approx(1.7268, abs=0.005)

    def test_main_lobe_width(self):
        window = make_window(WindowKind.BLACKMAN, 1024)
        assert window.main_lobe_bins == 3

    def test_edges_near_zero(self):
        window = make_window(WindowKind.BLACKMAN, 1024)
        assert abs(window.samples[0]) < 1e-12

    def test_symmetry(self):
        window = make_window(WindowKind.BLACKMAN, 513)
        np.testing.assert_allclose(window.samples, window.samples[::-1], atol=1e-12)


class TestValidation:
    def test_rejects_tiny_window(self):
        with pytest.raises(AnalysisError):
            make_window(WindowKind.BLACKMAN, 4)

    def test_length_property(self):
        assert make_window(WindowKind.HANN, 256).length == 256

    def test_zero_sum_window_enbw_raises(self):
        window = Window(kind=WindowKind.RECTANGULAR, samples=np.zeros(16))
        with pytest.raises(AnalysisError):
            _ = window.enbw_bins


class TestCache:
    def test_second_call_returns_the_same_window(self):
        assert make_window(WindowKind.BLACKMAN, 2048) is make_window(
            WindowKind.BLACKMAN, 2048
        )
        assert make_window(WindowKind.HANN, 2048) is not make_window(
            WindowKind.BLACKMAN, 2048
        )

    def test_shared_samples_are_read_only(self):
        window = make_window(WindowKind.BLACKMAN, 2048)
        with pytest.raises(ValueError):
            window.samples[0] = 1.0

    def test_constants_are_computed_once(self):
        window = make_window(WindowKind.BLACKMAN, 1024)
        fresh = Window(kind=WindowKind.BLACKMAN, samples=np.blackman(1024))
        assert window.coherent_gain == fresh.coherent_gain
        assert window.enbw_bins == fresh.enbw_bins
        assert {"coherent_gain", "enbw_bins"} <= set(vars(window))

    def test_spectrum_matches_one_on_a_freshly_built_window(self):
        rng = np.random.default_rng(3)
        signal = np.sin(2.0 * np.pi * 0.01 * np.arange(4096)) + 0.01 * rng.standard_normal(
            4096
        )
        cached = compute_spectrum(signal, 1e6)
        with mock.patch(
            "repro.analysis.spectrum.make_window", make_window.__wrapped__
        ):
            fresh = compute_spectrum(signal, 1e6)
        assert fresh.window is not cached.window
        assert cached.power.tobytes() == fresh.power.tobytes()
        assert cached.frequencies.tobytes() == fresh.frequencies.tobytes()
