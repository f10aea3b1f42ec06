"""Tests for the process descriptor."""

import math

import pytest

from repro.devices.process import CMOS_08UM, ProcessParameters
from repro.errors import ConfigurationError


class TestCmos08um:
    def test_thresholds_around_1v(self):
        # "given the threshold voltages around 1V"
        assert 0.8 <= CMOS_08UM.vth_n <= 1.1
        assert 0.8 <= CMOS_08UM.vth_p <= 1.1


class TestModifiers:
    def test_with_thresholds(self):
        lowvt = CMOS_08UM.with_thresholds(0.5, 0.55)
        assert lowvt.vth_n == pytest.approx(0.5)
        assert lowvt.vth_p == pytest.approx(0.55)
        assert lowvt.name == CMOS_08UM.name

    def test_original_unchanged(self):
        CMOS_08UM.with_thresholds(0.3, 0.3)
        assert CMOS_08UM.vth_n == pytest.approx(0.95)


class TestValidation:
    @pytest.mark.parametrize(
        "vth_n, vth_p",
        [
            (0.0, 1.0),
            (1.0, -0.1),
            # NaN passes a bare `<= 0` test and would reach the headroom
            # equations as a NaN supply bound.
            (math.nan, 1.0),
            (1.0, math.nan),
            (math.inf, 1.0),
            (1.0, math.inf),
        ],
    )
    def test_rejects_nonpositive_threshold(self, vth_n, vth_p):
        with pytest.raises(ConfigurationError, match="must be positive"):
            ProcessParameters(name="bad", vth_n=vth_n, vth_p=vth_p)
