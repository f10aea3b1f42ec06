"""Clocking substrate: two-phase non-overlapping clocks and scheduling.

Switched-current circuits are sampled-data systems driven by a
two-phase non-overlapping clock (phi1/phi2 in Fig. 1 of the paper).
This subpackage provides the phase bookkeeping the behavioural cell
models use to enforce correct sample/hold sequencing.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.clocks.phases import ClockEvent, Phase, TwoPhaseClock, alternating_phases
    from repro.clocks.scheduler import SampledDataScheduler

_EXPORTS = {
    "repro.clocks.phases": (
        "Phase",
        "TwoPhaseClock",
        "ClockEvent",
        "alternating_phases",
    ),
    "repro.clocks.scheduler": ("SampledDataScheduler",),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
