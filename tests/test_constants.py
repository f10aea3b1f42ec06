"""Tests for physical constants and the thermal energy kT."""

import pytest

from repro.constants import (
    BOLTZMANN,
    ELEMENTARY_CHARGE,
    MOS_THERMAL_GAMMA,
    ROOM_TEMPERATURE,
    kt,
)


class TestConstants:
    def test_boltzmann_value(self):
        assert BOLTZMANN == pytest.approx(1.380649e-23)

    def test_elementary_charge_value(self):
        assert ELEMENTARY_CHARGE == pytest.approx(1.602176634e-19)

    def test_mos_gamma_is_two_thirds(self):
        assert MOS_THERMAL_GAMMA == pytest.approx(2.0 / 3.0)

    def test_room_temperature(self):
        assert ROOM_TEMPERATURE == 300.0


class TestKt:
    def test_room_temperature_value(self):
        assert kt(300.0) == pytest.approx(4.141947e-21, rel=1e-5)

    @pytest.mark.parametrize("bad", [0.0, -10.0])
    def test_rejects_nonpositive_temperature(self, bad):
        with pytest.raises(ValueError):
            kt(bad)
