"""The test chip's delay line: two cascaded memory cells.

"Also implemented on the test chip was a delay line realized by
cascading two memory cells."  The first cell samples on phi1, the
second on phi2; after both, the input sample reappears at the output
one full clock period later, non-inverted (two inverting cells in
series).

The delay line is the paper's vehicle for characterising the raw cell:
Table 1 reports its THD (-50 dB at 8 uA / 5 kHz), SNR (50 dB over a
2.5 MHz band) and power (0.7 mW at 3.3 V, 5 MHz).
"""

from __future__ import annotations

from dataclasses import replace

from repro.clocks.phases import alternating_phases
from repro.errors import ConfigurationError
from repro.si.differential import DifferentialSample
from repro.si.memory_cell import ClassABMemoryCell, MemoryCellConfig
from repro.si.stages import Stage, StagedDevice

__all__ = ["DelayLine"]


class DelayLine(StagedDevice):
    """Cascade of ``n_cells`` class-AB memory cells.

    Parameters
    ----------
    config:
        Cell configuration shared by all cells (each cell gets an
        independent noise stream derived from ``config.seed``).
    n_cells:
        Number of cascaded cells; the paper's delay line uses 2.
    """

    def __init__(
        self, config: MemoryCellConfig | None = None, n_cells: int = 2
    ) -> None:
        if n_cells < 1:
            raise ConfigurationError(f"n_cells must be >= 1, got {n_cells!r}")
        base = config if config is not None else MemoryCellConfig()
        self.config = base
        self.cells: list[ClassABMemoryCell] = []
        for index in range(n_cells):
            seed = None if base.seed is None else base.seed + index
            self.cells.append(ClassABMemoryCell(replace(base, seed=seed)))
        self._telemetry_name = "delay_line"

    @property
    def n_cells(self) -> int:
        """Return the number of cascaded cells."""
        return len(self.cells)

    @property
    def delay_samples(self) -> int:
        """Return the nominal delay in clock periods.

        Each cell in this behavioural model contributes one period, so
        the delay equals the number of cells.  (On the chip two cells on
        opposite phases give one full period; the behavioural
        delay-count differs but the error accumulation -- one cell's
        errors per cascade stage -- is identical, which is what the
        Table 1 measurements exercise.)
        """
        return len(self.cells)

    @property
    def inverting(self) -> bool:
        """Return whether the cascade inverts overall."""
        return self.config.inverting and (len(self.cells) % 2 == 1)

    def stages(self) -> tuple[Stage, ...]:
        """Declare the cells, ``cell[i]``, on alternating phases from PHI1."""
        return tuple(
            Stage(f"cell[{index}]", cell, phase)
            for index, (cell, phase) in enumerate(
                zip(self.cells, alternating_phases(len(self.cells)))
            )
        )

    def attach_telemetry(
        self,
        session,
        name: str = "delay_line",
        full_scale: float | None = None,
        supply_voltage: float | None = None,
        clip_limit: float | None = None,
    ) -> None:
        """Attach a probe per cascaded cell and trace :meth:`run`.

        Each declared stage's probe (``<name>.cell[i]``) observes the
        cell's input differential current; a traced :meth:`run`
        additionally opens a device span with one structural record
        per stage carrying its clock phase.
        """
        self._telemetry = session
        self._telemetry_name = name
        for stage, cell, _ in self.stages():
            cell.attach_telemetry(
                session,
                f"{name}.{stage}",
                full_scale=full_scale,
                supply_voltage=supply_voltage,
                clip_limit=clip_limit,
            )

    def detach_telemetry(self) -> None:
        """Drop the session and every cell probe."""
        self._telemetry = None
        for cell in self.cells:
            cell.detach_telemetry()

    def reset(self) -> None:
        """Reset every cell in the cascade."""
        for cell in self.cells:
            cell.reset()

    def step(self, sample: DifferentialSample) -> DifferentialSample:
        """Advance one clock period through the whole cascade."""
        value = sample
        for cell in self.cells:
            value = cell.step(value)
        return value

    def _period(self, x: float) -> float:
        """Step a differential input through the cascade; return the output."""
        return self.step(DifferentialSample.from_components(x)).differential

    @property
    def slew_event_fraction(self) -> float:
        """Return the largest per-cell slew fraction in the cascade."""
        return max(cell.slew_event_fraction for cell in self.cells)

    def describe_graph(
        self,
        peak_signal_current: float = 8e-6,
        supply_voltage: float = 3.3,
    ):
        """Return the declarative circuit graph for static rule checking.

        The cells are the declared stages, annotated with their
        alternating sample phases (first cell on PHI1, second on PHI2,
        ...), exactly how the chip clocks its cascade.  Defaults describe the Table 1 operating point:
        8 uA peak input at the 3.3 V supply.
        """
        from repro.erc.graph import CircuitGraph

        stages = self.stages()
        graph = CircuitGraph(
            f"DelayLine[{self.n_cells}]",
            supply_voltage=supply_voltage,
            sample_rate=self.config.sample_rate,
        )
        graph.add_node("in", "source")
        for name, _, phase in stages:
            graph.add_node(
                name,
                "memory_cell",
                sample_phase=phase,
                read_phase=phase.other,
                peak_signal_current=peak_signal_current,
                differential=True,
                integrating=False,
                cell_class="class_ab",
                **self.config.erc_params(),
            )
        graph.add_node("out", "sink")
        graph.chain("in", *(stage.name for stage in stages), "out")
        return graph
