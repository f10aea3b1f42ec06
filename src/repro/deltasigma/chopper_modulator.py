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
exposed.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from repro.clocks.phases import Phase
from repro.errors import ConfigurationError
from repro.si.differential import DifferentialSample
from repro.si.differentiator import SIDifferentiator
from repro.si.memory_cell import MemoryCellConfig
from repro.deltasigma.dac import FeedbackDac
from repro.deltasigma.loop import FeedbackLoop
from repro.deltasigma.quantizer import CurrentQuantizer

__all__ = ["ChopperStabilizedSIModulator", "ChopperModulatorTrace"]


@dataclass(frozen=True)
class ChopperModulatorTrace:
    """Recorded signals of one chopper-modulator run.

    Attributes
    ----------
    output:
        Post-output-chopper digital bit stream reconstructed at the
        ideal levels (baseband signal); this is the converter's output,
        Fig. 6(b).
    raw_output:
        Pre-output-chopper bit stream (signal at f_s/2), Fig. 6(a).
    decisions:
        Raw quantiser decisions, +1/-1.
    state1:
        First differentiator state trace.
    state2:
        Second differentiator state trace.
    """

    output: np.ndarray
    raw_output: np.ndarray
    decisions: np.ndarray
    state1: np.ndarray
    state2: np.ndarray

    @property
    def max_state_swing(self) -> float:
        """Return the largest absolute internal state excursion."""
        return float(
            max(np.max(np.abs(self.state1)), np.max(np.abs(self.state2)))
        )


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
        self._telemetry = None
        self._telemetry_name = self.telemetry_name

    def loop_stages(self) -> tuple[tuple[str, SIDifferentiator, Phase], ...]:
        """Declare the two delaying differentiators, on alternating phases."""
        return (
            ("diff1", self._diff1, Phase.PHI1),
            ("diff2", self._diff2, Phase.PHI2),
        )

    @property
    def realizes_eq3(self) -> bool:
        """Return True if the bit stream realises Eq. (3) (``b2 = 2 a1 a2``)."""
        return abs(self.b2 - 2.0 * self.a1 * self.a2) < 1e-12

    def reset(self) -> None:
        """Zero the loop state."""
        self._diff1.reset()
        self._diff2.reset()
        self.quantizer.reset()

    def run(self, stimulus: np.ndarray, record_states: bool = False):
        """Run the modulator over a differential input-current array.

        Returns the post-chopper output array, or a
        :class:`ChopperModulatorTrace` when ``record_states`` is set.
        """
        data = np.asarray(stimulus, dtype=float)
        if data.ndim != 1:
            raise ConfigurationError(
                f"stimulus must be 1-D, got shape {data.shape}"
            )
        n_samples = data.shape[0]
        output = np.empty(n_samples)
        raw_output = np.empty(n_samples)
        decisions = np.empty(n_samples, dtype=np.int8)
        state1 = np.empty(n_samples) if record_states else None
        state2 = np.empty(n_samples) if record_states else None

        a1 = self.a1
        a2 = self.a2
        b2 = self.b2
        diff1 = self._diff1
        diff2 = self._diff2
        quantizer = self.quantizer
        dac = self.dac

        session = self._telemetry
        if session is None:
            span_context = nullcontext()
        else:
            span_context = session.span(
                self._telemetry_name,
                samples=n_samples,
                device="ChopperStabilizedSIModulator",
                order=2,
                chopped=True,
            )
        with span_context:
            fast = None
            if not record_states:
                from repro.runtime.engine import run_single

                fast = run_single(self, data)
            if fast is not None:
                output = fast
            else:
                chop_sign = 1.0
                for n in range(n_samples):
                    u = chop_sign * float(data[n])

                    w1 = diff1.state
                    w2 = diff2.state
                    decision = quantizer.decide(w2.differential)
                    feedback = dac.convert(decision)
                    fb_sample = DifferentialSample.from_components(feedback)

                    u_sample = DifferentialSample.from_components(u)
                    s1 = (u_sample - fb_sample).scaled(-a1)
                    s2 = fb_sample.scaled(b2) - w1.scaled(a2)
                    diff1.step(s1)
                    diff2.step(s2)

                    ideal_level = decision * self.full_scale
                    raw_output[n] = ideal_level
                    output[n] = chop_sign * ideal_level
                    decisions[n] = decision
                    if record_states:
                        state1[n] = w1.differential
                        state2[n] = w2.differential
                    chop_sign = -chop_sign

            if session is not None:
                name = self._telemetry_name
                full_scale = self.full_scale
                session.probe(f"{name}.input", full_scale=full_scale).observe_array(
                    data
                )
                session.probe(f"{name}.bitstream", full_scale=full_scale).observe_array(
                    output
                )
                session.record("chopper_in", samples=n_samples, role="chopper")
                session.record(
                    "differentiator1",
                    samples=n_samples,
                    phase="PHI1",
                    role="differentiator",
                )
                session.record(
                    "differentiator2",
                    samples=n_samples,
                    phase="PHI2",
                    role="differentiator",
                )
                session.record("quantizer+dac", samples=n_samples, role="quantizer")
                session.record("chopper_out", samples=n_samples, role="chopper")

        if record_states:
            return ChopperModulatorTrace(
                output=output,
                raw_output=raw_output,
                decisions=decisions,
                state1=state1,
                state2=state2,
            )
        return output

    def __call__(self, stimulus: np.ndarray) -> np.ndarray:
        """Run with a fresh state: the device-under-test interface."""
        self.reset()
        return self.run(stimulus)
