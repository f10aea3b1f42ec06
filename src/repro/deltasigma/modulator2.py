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

from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from repro.clocks.phases import Phase
from repro.errors import ConfigurationError
from repro.si.differential import DifferentialSample
from repro.si.integrator import SIIntegrator
from repro.si.memory_cell import MemoryCellConfig
from repro.deltasigma.dac import FeedbackDac
from repro.deltasigma.loop import FeedbackLoop
from repro.deltasigma.quantizer import CurrentQuantizer

__all__ = ["SIModulator2", "ModulatorTrace"]


@dataclass(frozen=True)
class ModulatorTrace:
    """Recorded internal signals of one modulator run.

    Attributes
    ----------
    output:
        The digital bit stream reconstructed at the ideal levels
        (``decision * full_scale``), in amperes.  This is the
        converter's observable: DAC noise/mismatch affect the *loop*
        (and therefore the decisions) but a digital reader sees ideal
        levels.
    decisions:
        Raw quantiser decisions, +1/-1.
    state1:
        First integrator (or differentiator) state trace, in amperes.
    state2:
        Second stage state trace, in amperes.
    """

    output: np.ndarray
    decisions: np.ndarray
    state1: np.ndarray
    state2: np.ndarray

    @property
    def max_state_swing(self) -> float:
        """Return the largest absolute internal state excursion."""
        return float(
            max(np.max(np.abs(self.state1)), np.max(np.abs(self.state2)))
        )


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
        self._telemetry = None
        self._telemetry_name = self.telemetry_name

    def loop_stages(self) -> tuple[tuple[str, SIIntegrator, Phase], ...]:
        """Declare the two delaying integrators, on alternating phases."""
        return (
            ("int1", self._int1, Phase.PHI1),
            ("int2", self._int2, Phase.PHI2),
        )

    @property
    def realizes_eq3(self) -> bool:
        """Return True if the bit stream realises Eq. (3).

        The condition is ``b2 = 2 a1 a2``: the second state is then a
        scaled copy of the canonical Eq. (3) loop's, and the sign
        quantiser makes the bit stream identical.
        """
        return abs(self.b2 - 2.0 * self.a1 * self.a2) < 1e-12

    def reset(self) -> None:
        """Zero the loop state."""
        self._int1.reset()
        self._int2.reset()
        self.quantizer.reset()

    def run(self, stimulus: np.ndarray, record_states: bool = False):
        """Run the modulator over a differential input-current array.

        Parameters
        ----------
        stimulus:
            Differential input current samples in amperes.
        record_states:
            When True, return a :class:`ModulatorTrace` with internal
            signals; otherwise return just the output array.

        Returns
        -------
        ``np.ndarray`` of DAC output currents, or a
        :class:`ModulatorTrace` when ``record_states`` is set.
        """
        data = np.asarray(stimulus, dtype=float)
        if data.ndim != 1:
            raise ConfigurationError(
                f"stimulus must be 1-D, got shape {data.shape}"
            )
        n_samples = data.shape[0]
        output = np.empty(n_samples)
        decisions = np.empty(n_samples, dtype=np.int8)
        state1 = np.empty(n_samples) if record_states else None
        state2 = np.empty(n_samples) if record_states else None

        a1 = self.a1
        a2 = self.a2
        b2 = self.b2
        int1 = self._int1
        int2 = self._int2
        quantizer = self.quantizer
        dac = self.dac
        full_scale = self.full_scale

        session = self._telemetry
        if session is None:
            span_context = nullcontext()
        else:
            span_context = session.span(
                self._telemetry_name,
                samples=n_samples,
                device="SIModulator2",
                order=2,
            )
        with span_context:
            fast = None
            if not record_states:
                from repro.runtime.engine import run_single

                fast = run_single(self, data)
            if fast is not None:
                output = fast
            else:
                for n in range(n_samples):
                    w1 = int1.state
                    w2 = int2.state
                    decision = quantizer.decide(w2.differential)
                    feedback = dac.convert(decision)
                    fb_sample = DifferentialSample.from_components(feedback)

                    x_sample = DifferentialSample.from_components(float(data[n]))
                    u1 = (x_sample - fb_sample).scaled(a1)
                    u2 = w1.scaled(a2) - fb_sample.scaled(b2)
                    int1.step(u1)
                    int2.step(u2)

                    output[n] = decision * full_scale
                    decisions[n] = decision
                    if record_states:
                        state1[n] = w1.differential
                        state2[n] = w2.differential

            if session is not None:
                name = self._telemetry_name
                session.probe(f"{name}.input", full_scale=full_scale).observe_array(
                    data
                )
                session.probe(f"{name}.bitstream", full_scale=full_scale).observe_array(
                    output
                )
                session.record(
                    "integrator1", samples=n_samples, phase="PHI1", role="integrator"
                )
                session.record(
                    "integrator2", samples=n_samples, phase="PHI2", role="integrator"
                )
                session.record(
                    "quantizer+dac", samples=n_samples, role="quantizer"
                )

        if record_states:
            return ModulatorTrace(
                output=output,
                decisions=decisions,
                state1=state1,
                state2=state2,
            )
        return output

    def __call__(self, stimulus: np.ndarray) -> np.ndarray:
        """Run with a fresh state: the device-under-test interface.

        Resets the loop first so amplitude sweeps see independent runs.
        """
        self.reset()
        return self.run(stimulus)
