"""Static electrical-rule checking (ERC) for composed SI designs.

The paper's circuits only work when a handful of *structural*
invariants hold: cascaded memory cells must be clocked on alternating
non-overlapping phases, the supply must satisfy the headroom equations
(Eqs. 1-2) at the intended modulation index, differential cascades need
common-mode control, the class-AB bias must cover the intended signal
swing, and modulator loops need consistent full-scale references.
Until now these were enforced only dynamically (mid-simulation, via
:class:`~repro.errors.ClockingError` and friends) or not at all.

This subpackage is the static half: every composed design exposes a
declarative :class:`~repro.erc.graph.CircuitGraph` via a
``describe_graph()`` hook, and :func:`~repro.erc.checker.run_erc`
evaluates a registry of pluggable rules against that graph *without
simulating anything* -- the same pre-flight pattern hardware generators
use (DRC/LVS before every expensive run).  A malformed design is
rejected in microseconds instead of after a 64K-sample simulation.

Quick use::

    from repro.deltasigma import SIModulator2
    from repro.erc import run_erc

    report = run_erc(SIModulator2())
    assert report.ok, report.render_table()

:class:`~repro.systems.testbench.TestBench` performs this check
automatically before every measurement (pass ``erc=False`` to opt
out), and ``repro erc <design>`` runs it from the shell.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.erc.graph import CircuitGraph, CircuitNode
    from repro.erc.rules import (
        DEFAULT_MAX_FANOUT,
        ErcViolation,
        MAX_MODELED_MODULATION_INDEX,
        Rule,
        RuleRegistry,
        Severity,
        default_registry,
    )
    from repro.erc.checker import ErcReport, check_design, run_erc

_EXPORTS = {
    "repro.erc.graph": ("CircuitGraph", "CircuitNode"),
    "repro.erc.rules": (
        "DEFAULT_MAX_FANOUT",
        "MAX_MODELED_MODULATION_INDEX",
        "ErcViolation",
        "Rule",
        "RuleRegistry",
        "Severity",
        "default_registry",
    ),
    "repro.erc.checker": ("ErcReport", "check_design", "run_erc"),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
