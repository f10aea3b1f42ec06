"""Static determinism & lowerability analysis over the repo's own source.

``repro erc`` checks *device graphs*; this package is its source-code
twin: ``repro lint`` parses Python files with :mod:`ast` (no third-party
dependency) and enforces the two contracts the runtime engine relies
on but cannot see until runtime:

* **Determinism** (SC001-SC007): every random draw must come from a
  seeded generator plumbed through the API seed boundary
  (:mod:`repro.config`), never from the process-global RNG, the wall
  clock, or unordered iteration feeding cache keys.
* **Lowerability** (SC010, SC012): code must stay inside the declared
  lowering protocol (:mod:`repro.runtime.lowering`); each finding
  *names the exact* :class:`~repro.runtime.batch.BatchUnsupported`
  refusal the runtime would raise, and the cross-validation suite
  asserts analyzer and runtime never disagree.

Deliberate exceptions live in a committed suppression baseline
(``baselines/staticcheck.json``) keyed on ``(rule, path, anchor)``
with a human reason per entry; stale entries surface as SC000.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.findings import Severity
    from repro.staticcheck.analyzer import LintReport, run_lint
    from repro.staticcheck.baseline import Baseline, BaselineEntry
    from repro.staticcheck.model import LintFinding, ModuleContext
    from repro.staticcheck.rules import LintRule, default_rules, rule_catalog

_EXPORTS = {
    "repro.findings": ("Severity",),
    "repro.staticcheck.analyzer": ("LintReport", "run_lint"),
    "repro.staticcheck.baseline": ("Baseline", "BaselineEntry"),
    "repro.staticcheck.model": ("LintFinding", "ModuleContext"),
    "repro.staticcheck.rules": ("LintRule", "default_rules", "rule_catalog"),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
