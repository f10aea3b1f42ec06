"""Noise models: thermal, flicker and quantisation.

The paper's key experimental finding is that the modulators' dynamic
range is limited by *thermal noise in the SI circuits* (a 33 nA rms
floor from the small storage capacitance), not by quantisation noise,
and that chopper stabilisation buys nothing because second-generation
cells already perform correlated double sampling and the floor is
thermal anyway.  This subpackage provides each of those ingredients as
an explicit, testable model.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.noise.sources import (
        CompositeNoiseSource,
        NoiseBudget,
        NoiseSource,
        WhiteNoiseSource,
    )
    from repro.noise.thermal import MemoryCellThermalNoise
    from repro.noise.flicker import FlickerNoiseSource, correlated_double_sampling_gain
    from repro.noise.quantization import (
        QuantizationNoiseModel,
        inband_noise_fraction,
        sqnr_second_order_db,
    )
    from repro.noise.streams import GaussianStream, UniformStream

_EXPORTS = {
    "repro.noise.sources": (
        "NoiseSource",
        "WhiteNoiseSource",
        "CompositeNoiseSource",
        "NoiseBudget",
    ),
    "repro.noise.thermal": ("MemoryCellThermalNoise",),
    "repro.noise.flicker": ("FlickerNoiseSource", "correlated_double_sampling_gain"),
    "repro.noise.quantization": (
        "QuantizationNoiseModel",
        "sqnr_second_order_db",
        "inband_noise_fraction",
    ),
    "repro.noise.streams": ("UniformStream", "GaussianStream"),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
