"""Switched-current "differentiator" block of the chopper modulator.

The chopper-stabilised modulator of Fig. 3(b) replaces the integrators
with blocks the paper calls differentiators, with "delay in both
differentiators ... to decouple settling chain between successive
stages".  The delaying block is

    H(z) = gain * z^-1 / (1 + z^-1),

whose pole sits at z = -1 (Nyquist): it "integrates" signals chopped to
f_s/2 exactly as an ordinary integrator integrates signals at DC.
Formally, chopping maps z -> -z, and H(-z) = -gain z^-1/(1 - z^-1): the
chopped differentiator *is* an (inverted) integrator in the chopped
domain, which is how the Fig. 3(b) loop realises the same second-order
noise shaping as Fig. 3(a).

The realisation is :class:`~repro.si.integrator.SIIntegrator` with
the state fed back crossed (a free wire-crossing in a fully
differential circuit), ``y[n] = -y[n-1] + gain * x[n-1]``: one class
attribute, :attr:`~repro.si.integrator.SIIntegrator.crossed`, which the
stage's step, its ERC sub-graph and its kernel lowering read.
"""

from __future__ import annotations

from repro.si.integrator import SIIntegrator

__all__ = ["SIDifferentiator"]


class SIDifferentiator(SIIntegrator):
    """Delaying SI differentiator: ``y[n] = -y[n-1] + gain * x[n-1]``.

    Note that the state feedback's sign inversion is a *wire crossing*,
    which flips the differential component but leaves the common mode
    untouched -- so the block's common-mode recursion is still
    ``cm[n+1] = cm[n] + ...``, an integrator.  The differentiator
    therefore needs common-mode control exactly as much as the
    integrator does, and embeds a CMFF stage by default.  The
    constructor parameters are the integrator's.
    """

    crossed = True
