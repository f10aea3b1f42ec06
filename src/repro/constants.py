"""Physical constants used throughout the switched-current models.

All values are in SI units.  The defaults correspond to room-temperature
operation (300 K), which is what the paper's 0.8 um CMOS test chip was
measured at.
"""

from __future__ import annotations

#: Boltzmann constant in joules per kelvin.
BOLTZMANN: float = 1.380649e-23

#: Elementary charge in coulombs.
ELEMENTARY_CHARGE: float = 1.602176634e-19

#: Default simulation temperature in kelvin (room temperature).
ROOM_TEMPERATURE: float = 300.0

#: Thermal-noise excess factor ``gamma`` for a long-channel MOSFET in
#: saturation.  The drain-current noise PSD is ``4 k T gamma g_m``.
MOS_THERMAL_GAMMA: float = 2.0 / 3.0


def kt(temperature: float = ROOM_TEMPERATURE) -> float:
    """Return the thermal energy ``kT`` in joules.

    Parameters
    ----------
    temperature:
        Absolute temperature in kelvin.  Must be positive.

    Raises
    ------
    ValueError
        If ``temperature`` is not positive.
    """
    if temperature <= 0.0:
        raise ValueError(f"temperature must be positive, got {temperature!r}")
    return BOLTZMANN * temperature
