"""Typed metric records: the unit of the paper-metrics layer.

A :class:`MetricSpec` declares what a metric *is* -- its unit, which
direction is better, how far a value may drift from a committed
baseline before the drift counts as a regression, and (when the paper
publishes the number) the paper's reference value with its acceptance
band.  A :class:`MetricRecord` is one *measured* value of a spec,
carrying the spec's gating fields inline so a serialized record is
self-contained: a run manifest written today can be compared years
later without the registry that produced it.

Provenance strings link a record back to the runtime telemetry that
produced it (``span:measure/analysis``, ``probe:modulator2.int1``,
``sweep:levels=-50..-10``), closing the loop between the metrics layer
and :mod:`repro.telemetry`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.errors import MetricsError

__all__ = ["Direction", "MetricSpec", "MetricRecord"]


class Direction(enum.Enum):
    """Which way a metric is allowed to drift from its baseline."""

    #: Larger is better (SNR, SNDR, dynamic range, throughput).
    HIGHER = "higher"
    #: Smaller is better (THD in dB, event counts, wall time).
    LOWER = "lower"
    #: The value should stay where it is (gain error, power, amplitude).
    TARGET = "target"

    @classmethod
    def from_name(cls, name: str) -> "Direction":
        """Return the direction for its serialized name.

        Raises
        ------
        MetricsError
            If the name is not a known direction.
        """
        for member in cls:
            if member.value == name:
                return member
        raise MetricsError(
            f"unknown direction {name!r}; expected one of "
            f"{', '.join(m.value for m in cls)}"
        )

    def worse(self, delta: float, bound: float) -> bool:
        """Return True when a move of ``delta`` is past ``bound`` the bad way."""
        if self is Direction.HIGHER:
            return delta < -bound
        if self is Direction.LOWER:
            return delta > bound
        return abs(delta) > bound


@dataclass(frozen=True)
class MetricSpec:
    """Declaration of one paper metric.

    Parameters
    ----------
    name:
        Stable snake_case identifier (``sndr_db``, ``dr_bits``, ...).
    unit:
        Display unit (``dB``, ``bits``, ``mW``, ``uA``, ``1/s``, ...).
    description:
        One-line human description.
    direction:
        Which drift direction counts as a regression.
    tolerance:
        Allowed drift from the baseline value before the comparison
        flags the metric (regression in the bad direction, warning in
        the good one).  None disables baseline gating for this metric.
    paper_value:
        The paper's published value, when one exists.
    paper_tolerance:
        Acceptance half-width around ``paper_value``; a measured value
        outside it is reported as a paper mismatch (warning).
    gate:
        False marks the metric informational (wall time, throughput):
        it is reported and diffed but can never fail a comparison.
    """

    name: str
    unit: str
    description: str
    direction: Direction = Direction.TARGET
    tolerance: float | None = None
    paper_value: float | None = None
    paper_tolerance: float | None = None
    gate: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise MetricsError("metric name must be non-empty")
        if self.tolerance is not None and self.tolerance < 0.0:
            raise MetricsError(
                f"metric {self.name!r}: tolerance must be non-negative, "
                f"got {self.tolerance!r}"
            )
        if self.paper_tolerance is not None and self.paper_tolerance < 0.0:
            raise MetricsError(
                f"metric {self.name!r}: paper_tolerance must be non-negative, "
                f"got {self.paper_tolerance!r}"
            )

    def record(self, value: float, provenance: str | None = None) -> "MetricRecord":
        """Return a measured record of this spec.

        Raises
        ------
        MetricsError
            If the value is not a finite number.
        """
        return MetricRecord(
            name=self.name,
            value=_finite(self.name, value),
            unit=self.unit,
            direction=self.direction,
            tolerance=self.tolerance,
            paper_value=self.paper_value,
            paper_tolerance=self.paper_tolerance,
            gate=self.gate,
            provenance=provenance,
        )


def _finite(name: str, value: object) -> float:
    """Validate that a metric value is a finite float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MetricsError(
            f"metric {name!r}: value must be a number, got {value!r}"
        )
    result = float(value)
    if not math.isfinite(result):
        raise MetricsError(f"metric {name!r}: value must be finite, got {result!r}")
    return result


@dataclass(frozen=True)
class MetricRecord:
    """One measured metric value with its gating fields inlined.

    Attributes mirror :class:`MetricSpec` plus:

    value:
        The measured number.
    provenance:
        Optional link to the telemetry that produced the value
        (``span:...``, ``probe:...``, ``sweep:...``).
    """

    name: str
    value: float
    unit: str
    direction: Direction = Direction.TARGET
    tolerance: float | None = None
    paper_value: float | None = None
    paper_tolerance: float | None = None
    gate: bool = True
    provenance: str | None = None

    @property
    def matches_paper(self) -> bool | None:
        """Return whether the value sits in the paper's acceptance band.

        None when the paper publishes no reference for this metric.
        """
        if self.paper_value is None or self.paper_tolerance is None:
            return None
        return abs(self.value - self.paper_value) <= self.paper_tolerance

    def display_value(self) -> str:
        """Return the value formatted for tables (engineering-friendly)."""
        magnitude = abs(self.value)
        if magnitude != 0.0 and (magnitude >= 1e5 or magnitude < 1e-3):
            return f"{self.value:.3e}"
        return f"{self.value:.3f}"

    def as_dict(self) -> dict[str, object]:
        """Return the record as a JSON-ready dictionary."""
        return {
            "name": self.name,
            "value": self.value,
            "unit": self.unit,
            "direction": self.direction.value,
            "tolerance": self.tolerance,
            "paper_value": self.paper_value,
            "paper_tolerance": self.paper_tolerance,
            "gate": self.gate,
            "provenance": self.provenance,
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "MetricRecord":
        """Rebuild a record from :meth:`as_dict` output.

        Raises
        ------
        MetricsError
            If required keys are missing or malformed.
        """
        try:
            name = str(data["name"])
            value = data["value"]
            unit = str(data["unit"])
        except KeyError as exc:
            raise MetricsError(f"metric record is missing key {exc}") from None

        def _optional(key: str) -> float | None:
            raw = data.get(key)
            if raw is None:
                return None
            if isinstance(raw, bool) or not isinstance(raw, (int, float)):
                raise MetricsError(
                    f"metric {name!r}: {key} must be a number or null, got {raw!r}"
                )
            return float(raw)

        provenance = data.get("provenance")
        return cls(
            name=name,
            value=_finite(name, value),
            unit=unit,
            direction=Direction.from_name(str(data.get("direction", "target"))),
            tolerance=_optional("tolerance"),
            paper_value=_optional("paper_value"),
            paper_tolerance=_optional("paper_tolerance"),
            gate=bool(data.get("gate", True)),
            provenance=None if provenance is None else str(provenance),
        )
