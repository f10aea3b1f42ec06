"""Device-level models: the CMOS substrate under the SI circuits.

This subpackage provides the current-mirror model, a process
descriptor holding the threshold voltages of the paper's 0.8 um
single-poly digital CMOS technology, and a Pelgrom-style mismatch
sampler.  The behavioural switched-current cells take their
square-law quantities as declared parameters (the saturation voltages
in :mod:`repro.si.headroom` and the cell configurations), not from a
transistor model.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.devices.process import CMOS_08UM, ProcessParameters
    from repro.devices.current_mirror import CurrentMirror
    from repro.devices.mismatch import MismatchSample, PelgromMismatch

_EXPORTS = {
    "repro.devices.process": ("ProcessParameters", "CMOS_08UM"),
    "repro.devices.current_mirror": ("CurrentMirror",),
    "repro.devices.mismatch": ("PelgromMismatch", "MismatchSample"),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
