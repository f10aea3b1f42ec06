"""Device-level models: the CMOS substrate under the SI circuits.

This subpackage provides the square-law MOSFET, MOS switch, current
mirror and current source models from which the behavioural
switched-current cells derive their nonideality parameters, plus a
process descriptor for the paper's 0.8 um single-poly digital CMOS
technology and a Pelgrom-style mismatch sampler.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.devices.mosfet import Mosfet, MosfetParameters, OperatingPoint
    from repro.devices.process import CMOS_08UM, ProcessParameters
    from repro.devices.switch import ChargeInjectionModel, MosSwitch
    from repro.devices.current_mirror import CurrentMirror
    from repro.devices.current_source import CascodeCurrentSource
    from repro.devices.mismatch import MismatchSample, PelgromMismatch

_EXPORTS = {
    "repro.devices.mosfet": ("Mosfet", "MosfetParameters", "OperatingPoint"),
    "repro.devices.process": ("ProcessParameters", "CMOS_08UM"),
    "repro.devices.switch": ("MosSwitch", "ChargeInjectionModel"),
    "repro.devices.current_mirror": ("CurrentMirror",),
    "repro.devices.current_source": ("CascodeCurrentSource",),
    "repro.devices.mismatch": ("PelgromMismatch", "MismatchSample"),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
