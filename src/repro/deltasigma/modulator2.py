"""Second-order switched-current delta-sigma modulator -- Fig. 3(a).

The loop realises (Eq. 3)

    Y(z) = z^-2 X(z) + (1 - z^-1)^2 E(z)

with two *delaying* SI integrators ("there is delay in both integrators
... to decouple settling chain and scaling is performed to have optimum
signal swing").  With delaying integrators the loop difference
equations are

    w1[n+1] = w1[n] + a1 (x[n] - y[n])
    w2[n+1] = w2[n] + a2 w1[n] - b2 y[n]
    y[n]    = FS * sign(w2[n])

and the linearised transfer comes out as Eq. (3) when
``b2 = 2 a1 a2`` (for ``a1 a2 = 1`` the match is literal; for other
values the second state is simply a scaled copy -- a 1-bit quantiser
reads only its *sign*, so the bit stream is identical).  That scale
freedom is the paper's "scaling is performed to have optimum signal
swing": the defaults ``a1 = 0.5, a2 = 1, b2 = 1`` hold the first state
within ~1.3x and the second within ~2x of full scale at the -6 dB
operating point ("both modulators ... only require a signal range in
both integrators and differentiators slightly larger than twice the
full-scale input range"), which the swing bench verifies.

Every analog imperfection enters through the parts: the integrators
carry full memory-cell error models (leak, distortion, slew, noise),
the quantiser can have offset/hysteresis/metastability, and the DAC can
have level mismatch.
"""

from __future__ import annotations

from dataclasses import replace

from repro.clocks.phases import Phase
from repro.errors import ConfigurationError
from repro.si.differential import DifferentialSample
from repro.si.integrator import SIIntegrator
from repro.si.memory_cell import MemoryCellConfig
from repro.si.stages import Stage
from repro.deltasigma.dac import FeedbackDac
from repro.deltasigma.loop import FeedbackLoop
from repro.deltasigma.quantizer import CurrentQuantizer

__all__ = ["SIModulator2"]


class SIModulator2(FeedbackLoop):
    """Fig. 3(a): conventional second-order SI delta-sigma modulator.

    Parameters
    ----------
    cell_config:
        Memory-cell configuration shared by the two integrators (each
        draws independent noise).
    full_scale:
        Feedback reference current in amperes (0 dB level; 6 uA in the
        paper).
    a1, a2, b2:
        Loop coefficients; defaults realise Eq. (3) with optimum swing.
    quantizer:
        Current quantiser; defaults to an ideal sign comparator.
    dac:
        Feedback DAC; built from ``full_scale`` when omitted.
    sample_rate:
        Clock frequency in hertz (2.45 MHz in the paper); propagated
        into the cell configuration for the flicker synthesiser.
    """

    telemetry_name = "modulator2"

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
        self._int1 = SIIntegrator(gain=1.0, config=base, seed_offset=101)
        self._int2 = SIIntegrator(gain=1.0, config=base, seed_offset=202)

    def stages(self) -> tuple[Stage, ...]:
        """Declare the two delaying integrators, on alternating phases."""
        return (
            Stage("int1", self._int1, Phase.PHI1),
            Stage("int2", self._int2, Phase.PHI2),
        )

    def reset(self) -> None:
        """Zero the loop state."""
        self._int1.reset()
        self._int2.reset()
        self.quantizer.reset()

    def _period(self, x: float) -> float:
        """Decide on the second state, feed back, integrate; return the bit."""
        w1 = self._int1.state
        w2 = self._int2.state
        decision = self.quantizer.decide(w2.differential)
        feedback = self.dac.convert(decision)
        fb_sample = DifferentialSample.from_components(feedback)

        x_sample = DifferentialSample.from_components(x)
        u1 = (x_sample - fb_sample).scaled(self.a1)
        u2 = w1.scaled(self.a2) - fb_sample.scaled(self.b2)
        self._int1.step(u1)
        self._int2.step(u2)
        return decision * self.full_scale
