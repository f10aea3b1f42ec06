"""Lint rule base class and the default rule registry.

Each rule carries a stable ``SC###`` code, a severity and a one-line
description (the rule catalog in ``docs/STATICCHECK.md`` is generated
from these).  Determinism rules (SC001-SC007) live in
:mod:`repro.staticcheck.determinism`; lowerability rules (SC010, SC012)
in :mod:`repro.staticcheck.lowerability`.  SC000 (stale suppression)
is emitted by the baseline layer, not a rule instance, but appears in
the catalog so ``--select``/``--ignore`` and the docs cover it.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.findings import Severity
from repro.staticcheck.model import LintFinding, ModuleContext

__all__ = [
    "LintRule",
    "default_rules",
    "rule_catalog",
    "STALE_SUPPRESSION_CODE",
]

#: Code of the analyzer-emitted stale-baseline-entry finding.
STALE_SUPPRESSION_CODE = "SC000"


class LintRule:
    """One static check over a parsed module.

    Subclasses set the class attributes and implement :meth:`check`,
    yielding findings via :meth:`finding` so location, anchor and
    severity are filled consistently.
    """

    #: Stable rule code (``"SC001"``).
    code: str = "SC000"
    #: Short kebab-case rule name.
    name: str = "unnamed"
    #: Default severity of this rule's findings.
    severity: Severity = Severity.WARNING
    #: One-line description for the catalog and ``--list`` output.
    description: str = ""

    def check(self, module: ModuleContext) -> Iterable[LintFinding]:
        """Yield every finding of this rule in ``module``."""
        raise NotImplementedError

    def finding(
        self,
        module: ModuleContext,
        node: ast.AST,
        message: str,
        predicts: str | None = None,
    ) -> LintFinding:
        """Build a finding anchored at ``node``'s source line."""
        line = getattr(node, "lineno", 1)
        column = getattr(node, "col_offset", 0)
        return LintFinding(
            rule=self.code,
            severity=self.severity,
            message=message,
            path=module.path,
            line=line,
            column=column,
            anchor=module.anchor(line),
            predicts=predicts,
        )


def default_rules() -> tuple[LintRule, ...]:
    """Return one instance of every implemented rule, in code order."""
    from repro.staticcheck.determinism import DETERMINISM_RULES
    from repro.staticcheck.lowerability import LOWERABILITY_RULES

    rules = tuple(cls() for cls in DETERMINISM_RULES + LOWERABILITY_RULES)
    return tuple(sorted(rules, key=lambda rule: rule.code))


def rule_catalog() -> list[tuple[str, str, str, str]]:
    """Return ``(code, name, severity, description)`` rows for the docs.

    Includes SC000, which the baseline layer emits directly.
    """
    rows = [
        (
            STALE_SUPPRESSION_CODE,
            "stale-suppression",
            Severity.WARNING.name,
            "Baseline entry no longer matches any finding; remove it.",
        )
    ]
    rows.extend(
        (rule.code, rule.name, rule.severity.name, rule.description)
        for rule in default_rules()
    )
    return rows
