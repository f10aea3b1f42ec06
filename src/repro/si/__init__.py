"""Switched-current circuit models: the paper's core contribution.

This subpackage contains behavioural models of the fully differential
class-AB SI memory cell (Fig. 1), the grounded-gate amplifier that
creates its virtual-ground input, the common-mode feedforward technique
(Fig. 2) with its CMFB baseline, and the composite blocks built from
them: the delay line, the SI integrator and the SI differentiator used
by the delta-sigma modulators.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.si.differential import DifferentialSample
    from repro.si.gga import GroundedGateAmplifier, SettlingResult
    from repro.si.errors_model import ChargeInjectionResidue, TransmissionError
    from repro.si.memory_cell import (
        ClassABMemoryCell,
        ClassAMemoryCell,
        MemoryCellConfig,
        class_ab_split,
    )
    from repro.si.delay_line import DelayLine
    from repro.si.biquad import SIBiquad, biquad_coefficients
    from repro.si.cascade import BiquadCascade, butterworth_q_values
    from repro.si.settling_study import (
        config_at_clock,
        max_clock_for_accuracy,
        settling_error_at_clock,
    )
    from repro.si.integrator import SIIntegrator
    from repro.si.differentiator import SIDifferentiator
    from repro.si.cmff import CommonModeFeedforward
    from repro.si.cmfb import CommonModeFeedback
    from repro.si.headroom import HeadroomAnalysis, SupplyBudget
    from repro.si.power import ClassKind, PowerModel

_EXPORTS = {
    "repro.si.differential": ("DifferentialSample",),
    "repro.si.gga": ("GroundedGateAmplifier", "SettlingResult"),
    "repro.si.errors_model": ("TransmissionError", "ChargeInjectionResidue"),
    "repro.si.memory_cell": (
        "MemoryCellConfig",
        "ClassABMemoryCell",
        "ClassAMemoryCell",
        "class_ab_split",
    ),
    "repro.si.delay_line": ("DelayLine",),
    "repro.si.biquad": ("SIBiquad", "biquad_coefficients"),
    "repro.si.cascade": ("BiquadCascade", "butterworth_q_values"),
    "repro.si.settling_study": (
        "config_at_clock",
        "settling_error_at_clock",
        "max_clock_for_accuracy",
    ),
    "repro.si.integrator": ("SIIntegrator",),
    "repro.si.differentiator": ("SIDifferentiator",),
    "repro.si.cmff": ("CommonModeFeedforward",),
    "repro.si.cmfb": ("CommonModeFeedback",),
    "repro.si.headroom": ("HeadroomAnalysis", "SupplyBudget"),
    "repro.si.power": ("PowerModel", "ClassKind"),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
