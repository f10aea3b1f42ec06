"""One stage declaration per modulator loop, and the views derived from it.

Each one-bit loop -- :class:`~repro.deltasigma.modulator1.SIModulator1`,
:class:`~repro.deltasigma.modulator2.SIModulator2` (Fig. 3(a)) and
:class:`~repro.deltasigma.chopper_modulator.ChopperStabilizedSIModulator`
(Fig. 3(b)) -- declares its stages once, in :meth:`FeedbackLoop.stages`:
the name prefix, the live integrator or differentiator, and the clock
phase it samples on.  :meth:`FeedbackLoop.structure` places them among
the loop's non-stage blocks.  The ERC graph
(:meth:`FeedbackLoop.describe_graph`), the probe names
(:meth:`FeedbackLoop.attach_telemetry`), the structural records of a
traced run and the kernel lowering's stage order
(:func:`repro.runtime.kernels.spec.device_parts`) are all read from
that declaration, and every loop runs through the one run path of
:class:`~repro.si.stages.StagedDevice`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, ClassVar

import numpy as np

from repro.si.stages import Block, Stage, StagedDevice, chopper_signs

if TYPE_CHECKING:
    from repro.deltasigma.dac import FeedbackDac
    from repro.deltasigma.quantizer import CurrentQuantizer
    from repro.erc.graph import CircuitGraph

__all__ = ["FeedbackLoop", "ModulatorTrace"]


@dataclass(frozen=True)
class ModulatorTrace:
    """Recorded signals of one modulator run.

    Attributes
    ----------
    output:
        The digital bit stream reconstructed at the ideal levels
        (``decision * full_scale``), in amperes, after the output
        chopper when the loop is chopped (Fig. 6(b)).  This is the
        converter's observable: DAC noise/mismatch affect the *loop*
        (and therefore the decisions) but a digital reader sees ideal
        levels.
    raw_output:
        The bit stream before the output chopper (for the chopper loop
        the signal sits at f_s/2, Fig. 6(a)); equal to ``output`` for
        an unchopped loop.
    decisions:
        Raw quantiser decisions, +1/-1.
    states:
        One row per declared stage: its state at the start of each
        period, in amperes.
    """

    output: np.ndarray
    raw_output: np.ndarray
    decisions: np.ndarray
    states: np.ndarray

    @property
    def state1(self) -> np.ndarray:
        """Return the first stage's state trace."""
        return self.states[0]

    @property
    def state2(self) -> np.ndarray:
        """Return the second stage's state trace."""
        return self.states[1]

    @property
    def max_state_swing(self) -> float:
        """Return the largest absolute internal state excursion."""
        return float(np.max(np.abs(self.states)))


class FeedbackLoop(StagedDevice):
    """A one-bit feedback loop: stages, quantizer and feedback DAC.

    Subclasses set :attr:`telemetry_name` (and :attr:`chopped` for the
    Fig. 3(b) loop), implement :meth:`stages` and the one-period
    recurrence ``_period`` (in the chopped domain when chopped: the
    run path applies both choppers), and provide the attributes below.
    """

    #: Default telemetry name: the device span and the probe prefix.
    telemetry_name: ClassVar[str]

    full_scale: float
    sample_rate: float
    quantizer: CurrentQuantizer
    dac: FeedbackDac

    def structure(self) -> tuple[Stage | Block, ...]:
        """Return the loop's elements in signal order.

        The input chopper when the loop is chopped, the declared
        stages, the quantizer, the DAC and, when chopped, the output
        chopper.  The non-stage blocks carry their circuit-graph node.
        """
        dac = self.dac
        elements: list[Stage | Block] = [
            *self.stages(),
            Block("quantizer", "quantizer", {"offset": self.quantizer.offset}),
            Block(
                "dac",
                "dac",
                {"full_scale": dac.full_scale, "level_mismatch": dac.level_mismatch},
            ),
        ]
        if self.chopped:
            elements = [
                Block("chop_in", "chopper", {"role": "input"}),
                *elements,
                Block("chop_out", "chopper", {"role": "output"}),
            ]
        return tuple(elements)

    def run(self, stimulus: np.ndarray, record_states: bool = False) -> Any:
        """Run the loop over a differential input-current array.

        Returns the output bit stream in amperes, or a
        :class:`ModulatorTrace` of the loop's internal signals when
        ``record_states`` is set (the scalar recurrence records them).
        """
        output, states = self._run(stimulus, record_states)
        if states is None:
            return output
        raw = chopper_signs(output.shape[0]) * output if self.chopped else output
        return ModulatorTrace(
            output=output,
            raw_output=raw,
            decisions=np.sign(raw).astype(np.int8),
            states=states,
        )

    def observe_lanes(self, stimuli: np.ndarray, outputs: np.ndarray) -> None:
        """Feed the ``<name>.input`` and ``<name>.bitstream`` probes, lane by lane.

        Both are referenced to the full scale; a traced run feeds its
        stimulus and its output bit stream once.
        """
        session = self._telemetry
        if session is None:
            return
        name = self._telemetry_name
        input_probe = session.probe(f"{name}.input", full_scale=self.full_scale)
        bitstream_probe = session.probe(f"{name}.bitstream", full_scale=self.full_scale)
        for lane in range(stimuli.shape[0]):
            input_probe.observe_array(stimuli[lane])
            bitstream_probe.observe_array(outputs[lane])

    def attach_telemetry(
        self,
        session: Any,
        name: str | None = None,
        supply_voltage: float | None = None,
    ) -> None:
        """Attach probes and trace subsequent ``run`` calls.

        Every stage gets cell and CMFF-residual probes,
        ``<name>.<stage>.cell`` and ``<name>.<stage>.cmff``, referenced
        to twice the full scale: the loop's designed state swing ("only
        require a signal range ... slightly larger than twice the
        full-scale input range").  A traced run additionally records
        ``<name>.input`` and ``<name>.bitstream`` probes plus one
        structural record per element of :meth:`structure`.  ``name``
        defaults to :attr:`telemetry_name`.
        """
        self._telemetry = session
        self._telemetry_name = self.telemetry_name if name is None else name
        for prefix, stage, _ in self.stages():
            stage.attach_telemetry(
                session,
                f"{self._telemetry_name}.{prefix}",
                full_scale=2.0 * self.full_scale,
                supply_voltage=supply_voltage,
            )

    def detach_telemetry(self) -> None:
        """Drop the session and every loop probe."""
        self._telemetry = None
        for _, stage, _ in self.stages():
            stage.detach_telemetry()

    def describe_graph(self, supply_voltage: float = 3.3) -> CircuitGraph:
        """Return the loop's circuit graph for static rule checking.

        The nodes are the elements of :meth:`structure`.  The stages
        cascade from the input -- through the input chopper when the
        loop is chopped -- to the quantizer, each sampling on its
        declared phase ("there is delay in both integrators ... to
        decouple settling chain"); their cells' design swing is twice
        the full scale, the paper's swing-scaling target.  The
        quantizer drives the DAC, which feeds back into every stage,
        and the output, through the output chopper when chopped: the
        pairing the chopper rule (ERC008) checks.
        """
        from repro.erc.graph import CircuitGraph

        stages = self.stages()
        graph = CircuitGraph(
            type(self).__name__,
            supply_voltage=supply_voltage,
            sample_rate=self.sample_rate,
            full_scale=self.full_scale,
        )
        graph.add_node("in", "source")
        for element in self.structure():
            if isinstance(element, Stage):
                graph.include(
                    element.part.describe_subgraph(
                        sample_phase=element.phase,
                        peak_signal_current=2.0 * self.full_scale,
                    ),
                    element.name,
                )
            else:
                graph.add_node(element.name, element.kind, **element.params)
        graph.add_node("out", "sink")
        driver = "in"
        if self.chopped:
            graph.connect(driver, "chop_in")
            driver = "chop_in"
        for prefix, stage, _ in stages:
            graph.connect(driver, f"{prefix}.cell")
            driver = f"{prefix}.{stage.output_node}"
        graph.chain(driver, "quantizer", "dac")
        graph.chain("quantizer", *(["chop_out"] if self.chopped else []), "out")
        for prefix, _, _ in stages:
            graph.connect("dac", f"{prefix}.cell")
        return graph
