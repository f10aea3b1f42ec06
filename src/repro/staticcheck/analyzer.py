"""File collection, rule evaluation and the ``repro lint`` report.

:func:`run_lint` is the library entry point behind the CLI verb: it
collects ``.py`` files under the given paths (sorted, so reports are
byte-stable), parses each into a
:class:`~repro.staticcheck.model.ModuleContext`, evaluates every rule,
applies ``--select``/``--ignore`` filters and the suppression
baseline, and returns a :class:`LintReport` sharing the exact severity
partitioning, summary line and exit-code gate of ``repro erc``
(:class:`repro.findings.Report`).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable, Sequence

from repro.errors import ConfigurationError
from repro.findings import Report, Severity, render_findings_table
from repro.outputs import output_path
from repro.staticcheck.baseline import Baseline
from repro.staticcheck.model import LintFinding, ModuleContext
from repro.staticcheck.rules import LintRule, default_rules

__all__ = ["LintReport", "run_lint", "collect_files"]

#: Directory names never descended into while collecting sources.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "node_modules"})


class LintReport(Report[LintFinding]):
    """Outcome of one lint pass over a set of source paths.

    The partitions, summary line and exit-code gate come from the
    shared :class:`repro.findings.Report` -- ``repro lint`` and
    ``repro erc`` render and gate identically.
    """

    label = "LINT"

    def __init__(
        self,
        subject: str,
        findings: Sequence[LintFinding] = (),
        suppressed: Sequence[LintFinding] = (),
        checked_files: int = 0,
    ) -> None:
        super().__init__(subject, findings)
        self.suppressed: tuple[LintFinding, ...] = tuple(suppressed)
        self.checked_files = checked_files

    def render_table(self) -> str:
        """Return the findings as a paper-style text table."""
        return render_findings_table(
            f"lint report: {self.subject}",
            ("rule", "severity", "location", "message"),
            self.findings,
            lambda f: (f.rule, f.severity.name, f.location, f.message),
            empty="no findings",
        )

    def to_payload(self) -> dict[str, object]:
        """Return the JSON document ``repro lint --json`` writes."""

        def encode(finding: LintFinding) -> dict[str, object]:
            payload: dict[str, object] = {
                "rule": finding.rule,
                "severity": finding.severity.name,
                "path": finding.path,
                "line": finding.line,
                "column": finding.column,
                "message": finding.message,
                "anchor": finding.anchor,
            }
            if finding.predicts is not None:
                payload["predicts"] = finding.predicts
            return payload

        return {
            "subject": self.subject,
            "checked_files": self.checked_files,
            "summary": self.summary(),
            "counts": {
                "error": len(self.regressions),
                "warning": len(self.warnings),
                "total": len(self.findings),
                "suppressed": len(self.suppressed),
            },
            "findings": [encode(f) for f in self.findings],
            "suppressed": [encode(f) for f in self.suppressed],
        }

    def write_json(self, path: str | Path) -> Path:
        """Write the JSON document to ``path`` and return it."""
        target = output_path(path)
        target.write_text(json.dumps(self.to_payload(), indent=2) + "\n")
        return target


def _normalize(path: Path) -> str:
    """Return a cwd-relative posix path when possible."""
    try:
        relative = path.resolve().relative_to(Path.cwd().resolve())
        return relative.as_posix()
    except ValueError:
        return path.as_posix()


def collect_files(paths: Sequence[str | Path]) -> list[Path]:
    """Return every ``.py`` file under ``paths``, sorted and deduplicated.

    Raises
    ------
    ConfigurationError
        If a path does not exist or names a non-Python file.
    """
    collected: dict[str, Path] = {}
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            if path.suffix != ".py":
                raise ConfigurationError(
                    f"cannot lint {path}: not a Python source file"
                )
            collected[_normalize(path)] = path
        elif path.is_dir():
            for found in sorted(path.rglob("*.py")):
                parts = set(found.parts)
                if parts & _SKIP_DIRS:
                    continue
                collected[_normalize(found)] = found
        else:
            raise ConfigurationError(f"cannot lint {path}: no such path")
    return [collected[key] for key in sorted(collected)]


def _parse_module(path: Path) -> ModuleContext:
    try:
        source = path.read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc
    try:
        return ModuleContext.parse(_normalize(path), source)
    except SyntaxError as exc:
        raise ConfigurationError(
            f"cannot parse {path}: {exc.msg} (line {exc.lineno})"
        ) from exc


def _validate_codes(
    codes: Iterable[str] | None, known: frozenset[str], flag: str
) -> frozenset[str] | None:
    if codes is None:
        return None
    requested = frozenset(codes)
    unknown = sorted(requested - known)
    if unknown:
        raise ConfigurationError(
            f"unknown rule code(s) in {flag}: {', '.join(unknown)}; "
            f"known codes: {', '.join(sorted(known))}"
        )
    return requested


def run_lint(
    paths: Sequence[str | Path],
    rules: Sequence[LintRule] | None = None,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    baseline: Baseline | str | Path | None = None,
    min_severity: Severity = Severity.INFO,
) -> LintReport:
    """Lint ``paths`` and return the report.

    Parameters
    ----------
    paths:
        Files or directories to scan.
    rules:
        Rule instances to evaluate; the full default set when omitted.
    select / ignore:
        Optional rule-code filters (select wins first, then ignore);
        both also apply to baseline-emitted SC000 findings.
    baseline:
        A loaded :class:`Baseline`, a path to one, or None for no
        suppression.
    min_severity:
        Findings below this severity are dropped from the report.
    """
    active_rules = tuple(rules) if rules is not None else default_rules()
    known = frozenset({rule.code for rule in active_rules} | {"SC000"})
    selected = _validate_codes(select, known, "--select")
    ignored = _validate_codes(ignore, known, "--ignore")

    files = collect_files(paths)
    modules = [_parse_module(path) for path in files]

    findings: list[LintFinding] = []
    seen: set[tuple[str, str, int, int, str]] = set()
    for module in modules:
        for rule in active_rules:
            for finding in rule.check(module):
                key = (
                    finding.rule,
                    finding.path,
                    finding.line,
                    finding.column,
                    finding.message,
                )
                if key in seen:
                    continue
                seen.add(key)
                findings.append(finding)

    def passes(finding: LintFinding) -> bool:
        if selected is not None and finding.rule not in selected:
            return False
        if ignored is not None and finding.rule in ignored:
            return False
        return True

    findings = [f for f in findings if passes(f)]

    loaded = (
        baseline
        if isinstance(baseline, Baseline)
        else Baseline.load(baseline)
        if baseline is not None
        else Baseline()
    )
    scanned = [module.path for module in modules]
    kept, suppressed, stale = loaded.apply(findings, scanned)
    kept.extend(f for f in stale if passes(f))

    kept.sort(key=lambda f: (f.path, f.line, f.column, f.rule))
    subject = ", ".join(os.fspath(p) for p in paths) if paths else "<nothing>"
    return LintReport(
        subject,
        tuple(f for f in kept if f.severity >= min_severity),
        suppressed=tuple(suppressed),
        checked_files=len(modules),
    )
