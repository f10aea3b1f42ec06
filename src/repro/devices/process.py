"""Process technology descriptor for the paper's CMOS technology.

The test chip was fabricated in a 0.8 um *single-poly* digital CMOS
process -- the paper's whole argument is that switched-current circuits
need no linear (double-poly) capacitors and therefore run on the cheap
digital process.  :data:`CMOS_08UM` holds the threshold voltages the
headroom equations (Eqs. 1-2) read; the paper states only that they
are "around 1 V".  The square-law saturation voltages those equations
add are declared in :class:`~repro.si.headroom.HeadroomAnalysis`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.errors import ConfigurationError

__all__ = ["ProcessParameters", "CMOS_08UM"]


@dataclass(frozen=True)
class ProcessParameters:
    """Threshold voltages of a CMOS process corner.

    Attributes
    ----------
    name:
        Human-readable identifier, e.g. ``"cmos-0.8um-typ"``.
    vth_n:
        NMOS threshold voltage in volts (positive).
    vth_p:
        PMOS threshold voltage magnitude in volts (positive).
    """

    name: str
    vth_n: float
    vth_p: float

    def __post_init__(self) -> None:
        for field_name in ("vth_n", "vth_p"):
            value = getattr(self, field_name)
            if not 0.0 < value < math.inf:
                raise ConfigurationError(
                    f"process parameter {field_name} must be positive and finite, "
                    f"got {value!r}"
                )

    def with_thresholds(self, vth_n: float, vth_p: float) -> "ProcessParameters":
        """Return a copy with different threshold voltages.

        Useful for exploring the headroom equations (Eqs. 1-2) across
        threshold corners, as the paper does when it argues 3.3 V is
        sufficient "given the threshold voltages around 1 V".
        """
        return replace(self, vth_n=vth_n, vth_p=vth_p)


#: Typical corner of the paper's 0.8 um single-poly digital CMOS process
#: ("given the threshold voltages around 1V" in the paper).
CMOS_08UM = ProcessParameters(name="cmos-0.8um-typ", vth_n=0.95, vth_p=1.0)
