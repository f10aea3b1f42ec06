"""Higher-order SI filters: cascades of biquad sections.

Completes the filtering application: practical SI filters (the
video-rate filters of [2], the paper's companion application space)
are built as cascades of second-order sections.  The cascade designer
here places identical-f0 sections with Butterworth-distributed Q values
to synthesise a maximally flat band-pass of arbitrary even order, and
the runner threads a signal through every section with the full cell
error models.
"""

from __future__ import annotations

import math

import numpy as np

from repro.clocks.phases import Phase
from repro.errors import ConfigurationError
from repro.si.biquad import SIBiquad
from repro.si.memory_cell import MemoryCellConfig
from repro.si.stages import Stage, StagedDevice

__all__ = ["BiquadCascade", "butterworth_q_values"]


def butterworth_q_values(n_sections: int) -> list[float]:
    """Return the section Q values of a 2n-order Butterworth response.

    The poles of a Butterworth low-pass prototype sit on the unit
    circle at angles ``theta_k = pi (2k + 1) / (4 n)``; each conjugate
    pair maps to a section with ``Q_k = 1 / (2 cos(theta_k))``.

    Raises
    ------
    ConfigurationError
        If ``n_sections`` is not positive.
    """
    if n_sections < 1:
        raise ConfigurationError(
            f"n_sections must be >= 1, got {n_sections!r}"
        )
    q_values = []
    for k in range(n_sections):
        theta = math.pi * (2 * k + 1) / (4 * n_sections)
        q_values.append(1.0 / (2.0 * math.cos(theta)))
    return q_values


class BiquadCascade(StagedDevice):
    """A cascade of SI biquad band-pass sections.

    Parameters
    ----------
    center_frequency:
        Common centre frequency of the sections, in hertz.
    n_sections:
        Number of second-order sections (filter order = 2 x sections).
    sample_rate:
        Clock frequency in hertz.
    config:
        Memory-cell configuration shared by all sections.
    q_values:
        Per-section Q values; Butterworth-distributed when omitted.
    """

    def __init__(
        self,
        center_frequency: float,
        n_sections: int,
        sample_rate: float,
        config: MemoryCellConfig | None = None,
        q_values: list[float] | None = None,
    ) -> None:
        if q_values is None:
            q_values = butterworth_q_values(n_sections)
        if len(q_values) != n_sections:
            raise ConfigurationError(
                f"need {n_sections} Q values, got {len(q_values)}"
            )
        self.center_frequency = center_frequency
        self.sample_rate = sample_rate
        self.sections = [
            SIBiquad.design(center_frequency, q, sample_rate, config=config)
            for q in q_values
        ]

    @property
    def order(self) -> int:
        """Return the filter order (2 per section)."""
        return 2 * len(self.sections)

    def stages(self) -> tuple[Stage, ...]:
        """Declare each section's two integrators, ``section[i].int1``/``int2``.

        They sample on PHI1 and PHI2, as in the section's ERC sub-graph.
        """
        return tuple(
            stage
            for index, section in enumerate(self.sections)
            for stage in (
                Stage(f"section[{index}].int1", section._int1, Phase.PHI1),
                Stage(f"section[{index}].int2", section._int2, Phase.PHI2),
            )
        )

    def reset(self) -> None:
        """Reset every section."""
        for section in self.sections:
            section.reset()

    def step(self, value: float) -> float:
        """Advance one period through the whole cascade (band-pass path)."""
        signal = value
        for section in self.sections:
            signal, _ = section.step(signal)
        return signal

    def _period(self, x: float) -> float:
        """Advance one period through the cascade (band-pass path)."""
        return self.step(x)

    def describe_graph(self, peak_signal_current: float | None = None):
        """Return the cascade's circuit graph for static rule checking.

        Each biquad section contributes its sub-graph (two integrator
        stages plus CMFF); consecutive sections are chained band-pass
        output to input.
        """
        from repro.erc.graph import CircuitGraph

        graph = CircuitGraph(
            f"BiquadCascade[order={self.order}]",
            sample_rate=self.sample_rate,
            center_frequency=self.center_frequency,
        )
        graph.add_node("in", "source")
        previous = "in"
        for index, section in enumerate(self.sections):
            prefix = f"section[{index}]"
            graph.include(
                section.describe_subgraph(peak_signal_current), prefix
            )
            graph.connect(previous, f"{prefix}.int1.cell")
            previous = f"{prefix}.int1.{section._int1.output_node}"
        graph.add_node("out", "sink")
        graph.connect(previous, "out")
        return graph

    def frequency_response(self, frequencies: np.ndarray) -> np.ndarray:
        """Return the ideal cascade magnitude response (product of sections)."""
        freqs = np.asarray(frequencies, dtype=float)
        response = np.ones_like(freqs)
        for section in self.sections:
            response = response * section.frequency_response(
                freqs, self.sample_rate
            )
        return response
