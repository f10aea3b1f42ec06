"""Chopper-stabilised second-order SI delta-sigma modulator -- Fig. 3(b).

The chopper-stabilised loop is "known to be immune from the influence
of low-frequency noise at the modulator input" [19]: the input chopper
translates the signal to f_s/2, the loop processes it there with
"differentiator" blocks (poles at z = -1), and the output chopper
translates it back.  Low-frequency noise injected *inside* the loop
ends up at f_s/2 in the final output -- far out of band.

Derivation of the loop equations.  Write ``c[n] = (-1)^n`` and primed
(baseband-equivalent) variables ``p'[n] = c[n] p[n]``.  A delaying
differentiator ``w[n+1] = -w[n] + s[n]`` becomes, in primed variables,
``w'[n+1] = w'[n] - s'[n]`` -- a delaying integrator with negated
input.  Choosing the physical sums

    s1[n] = -a1 (u[n] - y[n])          u = c * x  (input chopper)
    s2[n] = -a2 w1[n] + b2 y[n]

therefore makes the primed system exactly the Fig. 3(a) loop driven by
``u' = c * u = x``, and the sign quantiser commutes with chopping
(``sign(c w) = c sign(w)``), so the *output-chopped* bit stream
``c[n] y[n]`` obeys Eq. (3) identically:

    Y_chopped(z) = z^-2 X(z) + (1 - z^-1)^2 E'(z).

"This makes the chopper-stabilized structure for SI realization
different from the one reported for SC realization [19]" -- the
delaying blocks and the scaling are the SI-specific parts, and both are
reproduced here.

The pre-chopper output (Fig. 6(a): signal visible at high frequency)
and post-chopper output (Fig. 6(b): signal back at baseband) are both
exposed, as the ``raw_output`` and ``output`` of a
:class:`~repro.deltasigma.loop.ModulatorTrace`.
"""

from __future__ import annotations

from dataclasses import replace

from repro.clocks.phases import Phase
from repro.errors import ConfigurationError
from repro.si.differential import DifferentialSample
from repro.si.differentiator import SIDifferentiator
from repro.si.memory_cell import MemoryCellConfig
from repro.si.stages import Stage
from repro.deltasigma.dac import FeedbackDac
from repro.deltasigma.loop import FeedbackLoop
from repro.deltasigma.quantizer import CurrentQuantizer

__all__ = ["ChopperStabilizedSIModulator"]


class ChopperStabilizedSIModulator(FeedbackLoop):
    """Fig. 3(b): chopper-stabilised second-order SI modulator.

    Constructor parameters mirror
    :class:`~repro.deltasigma.modulator2.SIModulator2`; the loop
    coefficients have the same Eq. (3) bit-stream condition
    (``b2 = 2 a1 a2``) and the same swing-optimising defaults.  An
    input chopper ahead of the first stage and an output chopper
    translating the bit stream back to baseband frame the loop.
    """

    telemetry_name = "chopper"
    chopped = True

    def __init__(
        self,
        cell_config: MemoryCellConfig | None = None,
        full_scale: float = 6e-6,
        a1: float = 0.5,
        a2: float = 1.0,
        b2: float = 1.0,
        quantizer: CurrentQuantizer | None = None,
        dac: FeedbackDac | None = None,
        sample_rate: float = 2.45e6,
    ) -> None:
        if full_scale <= 0.0:
            raise ConfigurationError(
                f"full_scale must be positive, got {full_scale!r}"
            )
        if a1 <= 0.0 or a2 <= 0.0 or b2 <= 0.0:
            raise ConfigurationError(
                f"loop coefficients must be positive, got a1={a1!r}, "
                f"a2={a2!r}, b2={b2!r}"
            )
        base = cell_config if cell_config is not None else MemoryCellConfig()
        base = replace(base, sample_rate=sample_rate)
        self.cell_config = base
        self.full_scale = full_scale
        self.a1 = a1
        self.a2 = a2
        self.b2 = b2
        self.sample_rate = sample_rate
        self.quantizer = quantizer if quantizer is not None else CurrentQuantizer()
        self.dac = dac if dac is not None else FeedbackDac(full_scale=full_scale)
        self._diff1 = SIDifferentiator(gain=1.0, config=base, seed_offset=303)
        self._diff2 = SIDifferentiator(gain=1.0, config=base, seed_offset=404)

    def stages(self) -> tuple[Stage, ...]:
        """Declare the two delaying differentiators, on alternating phases."""
        return (
            Stage("diff1", self._diff1, Phase.PHI1),
            Stage("diff2", self._diff2, Phase.PHI2),
        )

    def reset(self) -> None:
        """Zero the loop state."""
        self._diff1.reset()
        self._diff2.reset()
        self.quantizer.reset()

    def _period(self, x: float) -> float:
        """One period in the chopped domain; return the bit before the output chopper.

        ``x`` is the input after the input chopper (``u = c * x``); the
        run path applies both choppers.
        """
        w1 = self._diff1.state
        w2 = self._diff2.state
        decision = self.quantizer.decide(w2.differential)
        feedback = self.dac.convert(decision)
        fb_sample = DifferentialSample.from_components(feedback)

        u_sample = DifferentialSample.from_components(x)
        s1 = (u_sample - fb_sample).scaled(-self.a1)
        s2 = fb_sample.scaled(self.b2) - w1.scaled(self.a2)
        self._diff1.step(s1)
        self._diff2.step(s2)
        return decision * self.full_scale
