"""Lowerability rules: SC010 and SC012.

These rules predict, at class-definition time, the exact refusal the
lowered engines would raise (:class:`~repro.runtime.batch.BatchUnsupported`
on the batch runners, ``KernelUnsupported`` on the kernel tier, both
from :func:`~repro.runtime.kernels.spec.build_spec`) -- every finding
carries the forecast message in its ``predicts`` field, and
``tests/staticcheck/test_cross_validation.py`` asserts analyzer and
runtime never disagree.  The shared source of truth is the declared
lowering protocol in :mod:`repro.runtime.lowering`: the rules import
the very same protocol table and refusal-message helpers the lowering
enforces with.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.findings import Severity
from repro.runtime.lowering import (
    LOWERING_PROTOCOL,
    PROTOCOL_BY_QUALNAME,
    LoweredBase,
    hook_refusal,
    hooks_outside_protocol,
    probe_pair_refusal,
    subclass_refusal,
)
from repro.staticcheck.model import LintFinding, ModuleContext
from repro.staticcheck.rules import LintRule

__all__ = ["LOWERABILITY_RULES"]

_BY_CLASSNAME: dict[str, LoweredBase] = {
    entry.base.__name__: entry for entry in LOWERING_PROTOCOL
}

_PROBE_QUALNAME = "repro.telemetry.probes.SignalProbe"
_PROBE_CLASSNAME = "SignalProbe"


def _matches_repro_class(
    module: ModuleContext,
    base: ast.expr,
    qualname: str,
    classname: str,
    defining_module: str,
) -> bool:
    """True when ``base`` resolves to the named repro class.

    Accepts the canonical qualified name, any ``repro.``-prefixed
    re-export ending in the class name, and the bare name inside the
    class's own defining module.
    """
    resolved = module.resolve(base)
    if resolved is None:
        return False
    if resolved == qualname:
        return True
    parts = resolved.split(".")
    if parts[-1] != classname:
        return False
    if resolved.startswith("repro."):
        return True
    return len(parts) == 1 and module.dotted_name == defining_module


def _entry_for_base(
    module: ModuleContext, base: ast.expr
) -> LoweredBase | None:
    """Return the protocol entry a class-statement base refers to."""
    resolved = module.resolve(base)
    if resolved is None:
        return None
    entry = PROTOCOL_BY_QUALNAME.get(resolved)
    if entry is not None:
        return entry
    name = resolved.split(".")[-1]
    candidate = _BY_CLASSNAME.get(name)
    if candidate is None:
        return None
    if _matches_repro_class(
        module,
        base,
        candidate.qualname,
        candidate.base.__name__,
        candidate.base.__module__,
    ):
        return candidate
    return None


def _defined_names(node: ast.ClassDef) -> list[str]:
    """Return the attribute names a class body binds."""
    names: list[str] = []
    for statement in node.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.append(statement.name)
        elif isinstance(statement, ast.Assign):
            names.extend(
                target.id
                for target in statement.targets
                if isinstance(target, ast.Name)
            )
        elif isinstance(statement, ast.AnnAssign):
            if statement.value is not None and isinstance(
                statement.target, ast.Name
            ):
                names.append(statement.target.id)
    return names


class ProtocolOverrideRule(LintRule):
    """SC010: subclass of a lowered base steps outside the protocol."""

    code = "SC010"
    name = "protocol-hook-override"
    severity = Severity.ERROR
    description = (
        "Subclass of a lowered base overrides hooks outside the "
        "declared lowering protocol; batch lowering will refuse."
    )

    def check(self, module: ModuleContext) -> Iterable[LintFinding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            # A class that is itself a declared protocol base carries
            # its own lowering (the runtime MRO walk stops at it), so
            # subclassing rules of its parents do not apply to it.
            if f"{module.dotted_name}.{node.name}" in PROTOCOL_BY_QUALNAME:
                continue
            for base in node.bases:
                entry = _entry_for_base(module, base)
                if entry is None:
                    continue
                finding = self._check_subclass(module, node, entry)
                if finding is not None:
                    yield finding
                break

    def _check_subclass(
        self, module: ModuleContext, node: ast.ClassDef, entry: LoweredBase
    ) -> LintFinding | None:
        if entry.exact:
            refusal = subclass_refusal(entry.kind, node.name)
            return self.finding(
                module,
                node,
                f"{node.name} subclasses exact-type-only "
                f"{entry.base.__name__}; batch lowering will refuse with "
                f"{refusal!r}",
                predicts=refusal,
            )
        hooks = hooks_outside_protocol(entry, _defined_names(node))
        if not hooks:
            return None
        refusal = hook_refusal(
            entry.kind, node.name, hooks[0], entry.base.__name__
        )
        listed = ", ".join(f"{hook}()" for hook in hooks)
        return self.finding(
            module,
            node,
            f"{node.name} overrides {listed} outside the lowering protocol "
            f"of {entry.base.__name__}; batch lowering will refuse with "
            f"{refusal!r}",
            predicts=refusal,
        )


class ProbePairRule(LintRule):
    """SC012: probe subclass overrides observe() xor observe_array()."""

    code = "SC012"
    name = "probe-pair-override"
    severity = Severity.ERROR
    description = (
        "SignalProbe subclass overrides observe()/observe_array() "
        "unpaired; scalar and lowered runs would observe differently."
    )

    def check(self, module: ModuleContext) -> Iterable[LintFinding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not any(
                _matches_repro_class(
                    module,
                    base,
                    _PROBE_QUALNAME,
                    _PROBE_CLASSNAME,
                    "repro.telemetry.probes",
                )
                for base in node.bases
            ):
                continue
            defined = set(_defined_names(node))
            has_scalar = "observe" in defined
            has_array = "observe_array" in defined
            if has_scalar == has_array:
                continue
            missing = "observe_array" if has_scalar else "observe"
            refusal = probe_pair_refusal(node.name)
            yield self.finding(
                module,
                node,
                f"{node.name} overrides one observation hook without "
                f"{missing}(); the scalar loop and the lowered replay "
                "would record different statistics -- batch lowering will "
                f"refuse with {refusal!r}",
                predicts=refusal,
            )


LOWERABILITY_RULES: tuple[type[LintRule], ...] = (
    ProtocolOverrideRule,
    ProbePairRule,
)
