"""Second-order delta-sigma modulators built from SI blocks (Fig. 3).

Contains the current quantiser, the feedback current DAC, the two
modulator topologies of Fig. 3 (conventional and chopper-stabilised),
an ideal discrete-time reference and a sinc^3 decimator.  Eq. (3) is
derived from the loops' own state space
(:func:`repro.runtime.kernels.loop_transfer`).
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.deltasigma.quantizer import CurrentQuantizer
    from repro.deltasigma.dither import DitheredQuantizer, idle_tone_power_ratio
    from repro.deltasigma.dac import FeedbackDac
    from repro.deltasigma.modulator1 import SIModulator1
    from repro.deltasigma.modulator2 import ModulatorTrace, SIModulator2
    from repro.deltasigma.chopper_modulator import ChopperStabilizedSIModulator
    from repro.deltasigma.ideal import IdealSecondOrderModulator
    from repro.deltasigma.decimator import SincDecimator
    from repro.deltasigma.predictions import (
        expected_dynamic_range_db,
        oversampling_gain_db,
        thermal_limited_dynamic_range_db,
    )

_EXPORTS = {
    "repro.deltasigma.quantizer": ("CurrentQuantizer",),
    "repro.deltasigma.dither": ("DitheredQuantizer", "idle_tone_power_ratio"),
    "repro.deltasigma.dac": ("FeedbackDac",),
    "repro.deltasigma.modulator1": ("SIModulator1",),
    "repro.deltasigma.modulator2": ("SIModulator2", "ModulatorTrace"),
    "repro.deltasigma.chopper_modulator": ("ChopperStabilizedSIModulator",),
    "repro.deltasigma.ideal": ("IdealSecondOrderModulator",),
    "repro.deltasigma.decimator": ("SincDecimator",),
    "repro.deltasigma.predictions": (
        "expected_dynamic_range_db",
        "thermal_limited_dynamic_range_db",
        "oversampling_gain_db",
    ),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
