"""Switched-capacitor (SC) comparison models.

The paper's closing argument positions SI against SC:

    "The thermal noise in SC circuits is usually much smaller due to
    the larger storage capacitance.  SC circuits can usually deliver
    higher dynamic range than SI circuits.  But SC circuits need
    double-poly CMOS process that make them not completely compatible
    with the digital (single-poly) CMOS process.  The SI technique is
    an inexpensive alternative to the SC technique for medium accuracy
    applications."

This subpackage provides a behavioural SC integrator and second-order
SC modulator with kT/C-limited noise so the trade-off can be swept
quantitatively: dynamic range versus storage capacitance (i.e. chip
area and the double-poly process requirement).
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.sc.integrator import ScIntegrator, kt_over_c_noise_rms
    from repro.sc.modulator import ScModulator2
    from repro.sc.tradeoff import ScSiTradeoff, TradeoffPoint

_EXPORTS = {
    "repro.sc.integrator": ("ScIntegrator", "kt_over_c_noise_rms"),
    "repro.sc.modulator": ("ScModulator2",),
    "repro.sc.tradeoff": ("ScSiTradeoff", "TradeoffPoint"),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
