"""System assembly: stimuli, test benches and the test-chip model.

Mirrors the paper's experimental setup: sinusoidal current stimuli fed
to the delay line and the two modulators (optionally polluted with an
"input interface" low-frequency interferer, which the paper blames for
the low-frequency content of Fig. 6), benches that drive a device and
produce measurements, the complete ADC (modulator + decimator), and a
:class:`~repro.systems.chip.TestChip` bundling all three blocks the way
the die does.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.systems.stimulus import SineStimulus, coherent_frequency, interferer_tone
    from repro.systems.testbench import BenchMeasurement, TestBench
    from repro.systems.adc import AdcKind, OversamplingAdc
    from repro.systems.chip import ChipOperatingPoint, TestChip
    from repro.systems.low_voltage import LowVoltageDesign, LowVoltageDesigner
    from repro.systems.montecarlo import CmffMonteCarlo, MonteCarloSummary

_EXPORTS = {
    "repro.systems.stimulus": ("SineStimulus", "coherent_frequency", "interferer_tone"),
    "repro.systems.testbench": ("TestBench", "BenchMeasurement"),
    "repro.systems.adc": ("OversamplingAdc", "AdcKind"),
    "repro.systems.chip": ("TestChip", "ChipOperatingPoint"),
    "repro.systems.low_voltage": ("LowVoltageDesign", "LowVoltageDesigner"),
    "repro.systems.montecarlo": ("CmffMonteCarlo", "MonteCarloSummary"),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
