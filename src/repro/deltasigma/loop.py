"""One stage declaration per modulator loop, and the views derived from it.

Each one-bit loop -- :class:`~repro.deltasigma.modulator1.SIModulator1`,
:class:`~repro.deltasigma.modulator2.SIModulator2` (Fig. 3(a)) and
:class:`~repro.deltasigma.chopper_modulator.ChopperStabilizedSIModulator`
(Fig. 3(b)) -- declares its stages once, in
:meth:`FeedbackLoop.loop_stages`: the name prefix, the live
integrator or differentiator, and the clock phase it samples on.  The
ERC graph (:meth:`FeedbackLoop.describe_graph`), the probe names
(:meth:`FeedbackLoop.attach_telemetry`) and the kernel lowering's
stage order (:func:`repro.runtime.kernels.spec.device_parts`) are all
read from that declaration.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, ClassVar

from repro.clocks.phases import Phase

if TYPE_CHECKING:
    from repro.deltasigma.dac import FeedbackDac
    from repro.deltasigma.quantizer import CurrentQuantizer
    from repro.erc.graph import CircuitGraph

__all__ = ["FeedbackLoop"]


class FeedbackLoop:
    """A one-bit feedback loop: stages, quantizer and feedback DAC.

    Subclasses set :attr:`telemetry_name` (and :attr:`chopped` for the
    Fig. 3(b) loop), implement :meth:`loop_stages`, and provide the
    attributes below.
    """

    #: Default telemetry name: the device span and the probe prefix.
    telemetry_name: ClassVar[str]
    #: Whether an input and an output chopper frame the loop.
    chopped: ClassVar[bool] = False

    full_scale: float
    sample_rate: float
    quantizer: CurrentQuantizer
    dac: FeedbackDac
    _telemetry: Any
    _telemetry_name: str

    def loop_stages(self) -> tuple[tuple[str, Any, Phase], ...]:
        """Return ``(prefix, stage, sample phase)`` per stage, input first."""
        raise NotImplementedError

    def attach_telemetry(
        self,
        session: Any,
        name: str | None = None,
        supply_voltage: float | None = None,
    ) -> None:
        """Attach probes and trace subsequent ``run`` calls.

        Every stage gets cell and CMFF-residual probes,
        ``<name>.<prefix>.cell`` and ``<name>.<prefix>.cmff``, referenced
        to twice the full scale: the loop's designed state swing ("only
        require a signal range ... slightly larger than twice the
        full-scale input range").  A traced run additionally records
        ``<name>.input`` and ``<name>.bitstream`` probes plus one
        structural stage record per loop element with its clock phase.
        ``name`` defaults to :attr:`telemetry_name`.
        """
        self._telemetry = session
        self._telemetry_name = self.telemetry_name if name is None else name
        for prefix, stage, _ in self.loop_stages():
            stage.attach_telemetry(
                session,
                f"{self._telemetry_name}.{prefix}",
                full_scale=2.0 * self.full_scale,
                supply_voltage=supply_voltage,
            )

    def detach_telemetry(self) -> None:
        """Drop the session and every loop probe."""
        self._telemetry = None
        for _, stage, _ in self.loop_stages():
            stage.detach_telemetry()

    def describe_graph(self, supply_voltage: float = 3.3) -> CircuitGraph:
        """Return the loop's circuit graph for static rule checking.

        The stages cascade from the input -- through the input chopper
        when the loop is chopped -- to the quantizer, each sampling on
        its declared phase ("there is delay in both integrators ... to
        decouple settling chain"); their cells' design swing is twice
        the full scale, the paper's swing-scaling target.  The
        quantizer drives the DAC, which feeds back into every stage,
        and the output, through the output chopper when chopped: the
        pairing the chopper rule (ERC008) checks.
        """
        from repro.erc.graph import CircuitGraph

        stages = self.loop_stages()
        graph = CircuitGraph(
            type(self).__name__,
            supply_voltage=supply_voltage,
            sample_rate=self.sample_rate,
            full_scale=self.full_scale,
        )
        graph.add_node("in", "source")
        if self.chopped:
            graph.add_node("chop_in", "chopper", role="input")
        for prefix, stage, phase in stages:
            graph.include(
                stage.describe_subgraph(
                    sample_phase=phase, peak_signal_current=2.0 * self.full_scale
                ),
                prefix,
            )
        graph.add_node("quantizer", "quantizer", offset=self.quantizer.offset)
        graph.add_node(
            "dac",
            "dac",
            full_scale=self.dac.full_scale,
            level_mismatch=self.dac.level_mismatch,
        )
        if self.chopped:
            graph.add_node("chop_out", "chopper", role="output")
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
