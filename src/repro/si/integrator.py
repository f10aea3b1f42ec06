"""Switched-current integrator built from class-AB memory cells.

The Fig. 3(a) modulator uses *delaying* integrators,

    H(z) = gain * z^-1 / (1 - z^-1),

"to decouple settling chain" between successive stages: each stage's
output this period is a value stored last period, so nothing inside a
phase waits on anything else settling.

The behavioural realisation holds the integrator state inside a
:class:`~repro.si.memory_cell.ClassABMemoryCell`: every period the
state plus the scaled input is re-stored through the cell, so the
cell's transmission error turns the integrator *leaky* (the classic SI
integrator gain error), its charge-injection residue becomes an
input-referred offset/distortion, its GGA can slew on large state
steps, and its thermal noise enters the loop exactly where it does on
the chip.

An SI integrator has *infinite DC common-mode gain*: any common-mode
disturbance (the cell's own charge-injection residue is one) integrates
without bound unless a common-mode control loop removes it.  That is
precisely why the paper's modulators need CMFF, so the integrator
embeds a :class:`~repro.si.cmff.CommonModeFeedforward` stage by
default; pass ``cmff=None`` to remove it and watch the loop die (the
CMFF ablation bench does exactly that).
"""

from __future__ import annotations

from dataclasses import replace
from typing import ClassVar

from repro.clocks.phases import Phase
from repro.errors import ConfigurationError
from repro.si.cmff import CommonModeFeedforward
from repro.si.differential import DifferentialSample
from repro.si.memory_cell import ClassABMemoryCell, MemoryCellConfig

__all__ = ["SIIntegrator"]

_CMFF_DEFAULT = object()


class SIIntegrator:
    """Delaying SI integrator: ``y[n] = y[n-1] + gain * x[n-1]`` plus cell errors.

    Parameters
    ----------
    gain:
        Input scaling coefficient (the paper's swing-optimising scaling;
        0.5 for the first integrator of the Fig. 3(a) modulator).
    config:
        Memory-cell configuration; defaults to the standard cell.
    seed_offset:
        Added to ``config.seed`` (when set) so that multiple integrators
        built from the same configuration draw independent noise.
    cmff:
        Common-mode feedforward stage applied to the stored value each
        period.  Defaults to an ideally matched CMFF; pass ``None`` to
        disable common-mode control entirely (ablation only -- the
        common mode then integrates unboundedly).
    """

    #: Whether the stored state is fed back crossed (sign-inverted
    #: differential), which puts the pole at z = -1: the
    #: :class:`~repro.si.differentiator.SIDifferentiator`.
    crossed: ClassVar[bool] = False

    def __init__(
        self,
        gain: float,
        config: MemoryCellConfig | None = None,
        seed_offset: int = 0,
        cmff: CommonModeFeedforward | None | object = _CMFF_DEFAULT,
    ) -> None:
        if gain == 0.0:
            raise ConfigurationError(f"{type(self).__name__} gain must be non-zero")
        base = config if config is not None else MemoryCellConfig()
        if base.seed is not None:
            base = replace(base, seed=base.seed + seed_offset)
        # The loop around the cell supplies the sign bookkeeping; the
        # cell itself is used non-inverting (a cell pair on the chip).
        self._cell = ClassABMemoryCell(replace(base, inverting=False))
        self.gain = gain
        if cmff is _CMFF_DEFAULT:
            self.cmff: CommonModeFeedforward | None = CommonModeFeedforward()
        else:
            self.cmff = cmff  # type: ignore[assignment]

    @property
    def state(self) -> DifferentialSample:
        """Return the stage state (last stored sample)."""
        return self._cell.stored

    @property
    def slew_event_fraction(self) -> float:
        """Return the fraction of periods in which the cell slewed."""
        return self._cell.slew_event_fraction

    def attach_telemetry(
        self,
        session,
        name: str,
        full_scale: float | None = None,
        supply_voltage: float | None = None,
        clip_limit: float | None = None,
    ):
        """Attach probes to the state-holding cell and the CMFF stage.

        ``<name>.cell`` observes the differential current stored each
        period (the integrator state trajectory -- the quantity the
        paper's swing-optimising coefficients are chosen to bound);
        ``<name>.cmff`` observes the residual common mode after
        correction.  Returns the cell probe.
        """
        probe = self._cell.attach_telemetry(
            session,
            f"{name}.cell",
            full_scale=full_scale,
            supply_voltage=supply_voltage,
            clip_limit=clip_limit,
        )
        if self.cmff is not None and full_scale is not None:
            self.cmff.attach_telemetry(session, f"{name}.cmff", full_scale)
        return probe

    def detach_telemetry(self) -> None:
        """Drop every probe this stage attached."""
        self._cell.detach_telemetry()
        if self.cmff is not None:
            self.cmff.detach_telemetry()

    def reset(self) -> None:
        """Zero the stage state."""
        self._cell.reset()

    def step(self, sample: DifferentialSample) -> DifferentialSample:
        """Advance one period; return the (delayed) stage output.

        The returned value is the state as of the *start* of the period
        (``z^-1`` numerator); the state, crossed when :attr:`crossed`
        is set, is then updated with the scaled input through the
        memory cell's full error pipeline.
        """
        output = self._cell.stored
        fed_back = output.crossed() if self.crossed else output
        target = fed_back + sample.scaled(self.gain)
        if self.cmff is not None:
            target = self.cmff.apply(target)
        self._cell.step(target)
        return output

    def step_differential(self, differential_input: float) -> float:
        """Scalar convenience wrapper around :meth:`step`."""
        result = self.step(DifferentialSample.from_components(differential_input))
        return result.differential

    def describe_subgraph(
        self,
        sample_phase: Phase = Phase.PHI1,
        peak_signal_current: float | None = None,
    ):
        """Return this stage's circuit sub-graph for static rule checking.

        The sub-graph holds a ``cell`` node (marked ``integrating`` --
        an SI integrator has infinite DC common-mode gain, which is
        what the CMFF-coverage rule keys on) and, when common-mode
        control is attached, a ``cmff`` node at the cell output.
        Composite designs splice it in with
        :meth:`repro.erc.graph.CircuitGraph.include`; the stage's
        output node is ``cmff`` when present, else ``cell``.  A
        :attr:`crossed` stage's common mode still integrates (the
        crossing flips only the differential component), so its cell
        is marked ``integrating`` too.
        """
        from repro.erc.graph import CircuitGraph

        config = self._cell.config
        graph = CircuitGraph("SIDifferentiator" if self.crossed else "SIIntegrator")
        graph.add_node(
            "cell",
            "memory_cell",
            sample_phase=sample_phase,
            read_phase=sample_phase.other,
            peak_signal_current=peak_signal_current,
            differential=True,
            integrating=True,
            cell_class="class_ab",
            gain=self.gain,
            **config.erc_params(),
        )
        if self.cmff is not None:
            graph.add_node("cmff", "cmff", **self.cmff.erc_params())
            graph.connect("cell", "cmff")
        return graph

    @property
    def output_node(self) -> str:
        """Return the name of this stage's output node in its sub-graph."""
        return "cmff" if self.cmff is not None else "cell"
