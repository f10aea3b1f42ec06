"""Run the ERC rule registry over a design graph and report.

The checker is the LVS/DRC analogue for this library: it takes any
object with a ``describe_graph()`` hook (or a ready-made
:class:`~repro.erc.graph.CircuitGraph`), evaluates every registered
rule, and returns an :class:`ErcReport` that knows how to render
itself as a paper-style table and whether the design is clean enough
to simulate.
"""

from __future__ import annotations

from typing import Any

from repro.erc.graph import CircuitGraph
from repro.erc.rules import (
    ErcViolation,
    RuleRegistry,
    Severity,
    default_registry,
)
from repro.errors import ConfigurationError, ERCError
from repro.findings import Report, render_findings_table

__all__ = ["ErcReport", "run_erc", "check_design"]


class ErcReport(Report[ErcViolation]):
    """Outcome of one ERC pass over a design.

    Attributes
    ----------
    design:
        Name of the checked design graph.
    violations:
        Every violation found, in rule order.

    The partitions (:attr:`regressions`, :attr:`warnings`, :attr:`ok`),
    the summary line and the exit-code gate come from the shared
    :class:`repro.findings.Report`, so ``repro erc`` and ``repro lint``
    render and gate identically.
    """

    label = "ERC"

    def __init__(
        self, design: str, violations: tuple[ErcViolation, ...] = ()
    ) -> None:
        super().__init__(design, violations)

    @property
    def design(self) -> str:
        """Name of the checked design graph."""
        return self.subject

    @property
    def violations(self) -> tuple[ErcViolation, ...]:
        """Every violation found, in rule order."""
        return self.findings

    def render_table(self) -> str:
        """Return the violations as a paper-style text table."""
        return render_findings_table(
            f"ERC report: {self.design}",
            ("rule", "severity", "node", "message"),
            self.violations,
            lambda v: (
                v.rule,
                v.severity.name,
                v.node if v.node is not None else "<design>",
                v.message,
            ),
            empty="no violations",
        )


def _resolve_graph(design: Any) -> CircuitGraph:
    """Return the circuit graph for a design object or graph."""
    if isinstance(design, CircuitGraph):
        return design
    describe = getattr(design, "describe_graph", None)
    if describe is None:
        raise ConfigurationError(
            f"{type(design).__name__} has no describe_graph() hook and is "
            "not a CircuitGraph; ERC cannot see its structure"
        )
    graph = describe()
    if not isinstance(graph, CircuitGraph):
        raise ConfigurationError(
            f"{type(design).__name__}.describe_graph() returned "
            f"{type(graph).__name__}, expected CircuitGraph"
        )
    return graph


def run_erc(
    design: Any,
    registry: RuleRegistry | None = None,
    min_severity: Severity = Severity.INFO,
) -> ErcReport:
    """Statically check a design and return the report.

    Parameters
    ----------
    design:
        A :class:`~repro.erc.graph.CircuitGraph` or any object exposing
        ``describe_graph()`` (the delay line, the biquad cascade, both
        modulators, ...).
    registry:
        Rules to evaluate; the default eight-rule registry when omitted.
    min_severity:
        Violations below this severity are dropped from the report.
    """
    graph = _resolve_graph(design)
    rules = registry if registry is not None else default_registry()
    violations = tuple(
        v for rule in rules for v in rule.check(graph) if v.severity >= min_severity
    )
    return ErcReport(design=graph.name, violations=violations)


def check_design(
    design: Any,
    registry: RuleRegistry | None = None,
) -> ErcReport:
    """Run ERC and raise when the design has blocking violations.

    Returns the report on success so callers can still inspect
    warnings.

    Raises
    ------
    ERCError
        If any ERROR-severity violation was found; the exception
        carries the report on its ``report`` attribute.
    """
    report = run_erc(design, registry=registry)
    if not report.ok:
        detail = "; ".join(str(v) for v in report.regressions)
        raise ERCError(
            f"{report.summary()}: {detail}",
            report=report,
        )
    return report
