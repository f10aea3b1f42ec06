"""Per-rule fixture tests: every rule fires on its positive fixture and
stays silent on its negative one.

The fixtures live in ``tests/staticcheck/fixtures/`` and are linted as
plain files (no import), so they can freely contain the anti-patterns
the rules exist to catch.
"""

from pathlib import Path

import pytest

from repro.findings import Severity
from repro.runtime.lowering import (
    hook_refusal,
    probe_pair_refusal,
    subclass_refusal,
)
from repro.staticcheck import default_rules, rule_catalog, run_lint
from repro.staticcheck.model import KERNEL_MODULE_SUFFIXES, ModuleContext

FIXTURES = Path(__file__).parent / "fixtures"

#: fixture file -> exact ordered rule codes expected (no baseline).
CASES = [
    ("sc001_pos.py", ["SC001"] * 4),
    ("sc001_neg.py", []),
    ("sc002_pos.py", ["SC002"] * 2),
    ("sc002_neg.py", []),
    ("sc003_pos.py", ["SC003"] * 2),
    ("sc003_cache_pos.py", ["SC003"] * 2),
    ("sc003_neg.py", []),
    ("sc004_pos.py", ["SC004"] * 4),
    ("sc004_neg.py", []),
    ("sc005_pos.py", ["SC005"]),
    ("sc005_untagged.py", []),
    ("sc006_pos.py", ["SC006"] * 3),
    ("sc006_neg.py", []),
    ("sc007_pos.py", ["SC002", "SC007"]),
    ("sc010_pos.py", ["SC010"] * 2),
    ("sc010_neg.py", []),
    ("sc012_pos.py", ["SC012"]),
    ("sc012_neg.py", []),
]


def _lint(name, **kwargs):
    return run_lint([FIXTURES / name], **kwargs)


@pytest.mark.parametrize(("name", "expected"), CASES, ids=[c[0] for c in CASES])
def test_fixture_rule_codes(name, expected):
    report = _lint(name)
    assert sorted(f.rule for f in report.findings) == sorted(expected)


def test_catalog_lists_every_rule_once():
    codes = [code for code, _, _, _ in rule_catalog()]
    assert codes == [
        "SC000",
        "SC001",
        "SC002",
        "SC003",
        "SC004",
        "SC005",
        "SC006",
        "SC007",
        "SC010",
        "SC012",
    ]
    assert [rule.code for rule in default_rules()] == sorted(
        rule.code for rule in default_rules()
    )


def test_findings_carry_source_anchors():
    report = _lint("sc001_pos.py")
    source_lines = (FIXTURES / "sc001_pos.py").read_text().splitlines()
    for finding in report.findings:
        assert finding.anchor == source_lines[finding.line - 1].strip()
        assert finding.severity is Severity.ERROR


def test_sc010_predicts_exact_runtime_refusals():
    findings = _lint("sc010_pos.py").findings
    assert [f.predicts for f in findings] == [
        hook_refusal("delay line", "TamperedLine", "run", "DelayLine"),
        subclass_refusal("quantizer", "SoftQuantizer"),
    ]


def test_sc012_predicts_the_pairing_refusal():
    findings = _lint("sc012_pos.py").findings
    assert [f.predicts for f in findings] == [probe_pair_refusal("PeakProbe")]


def test_select_and_ignore_filters():
    only = _lint("sc007_pos.py", select=["SC007"])
    assert [f.rule for f in only.findings] == ["SC007"]
    dropped = _lint("sc007_pos.py", ignore=["SC007"])
    assert [f.rule for f in dropped.findings] == ["SC002"]


def test_min_severity_filter():
    report = _lint("sc007_pos.py", min_severity=Severity.ERROR)
    assert [f.rule for f in report.findings] == ["SC002"]


def test_kernel_module_classified_by_path():
    module = ModuleContext.parse(
        "src/repro/runtime/kernels/store.py", "x = 1\n"
    )
    assert module.is_kernel_module and not module.is_cache_module
    cache = ModuleContext.parse("src/repro/runtime/cache.py", "x = 1\n")
    assert cache.is_cache_module and not cache.is_kernel_module
    plain = ModuleContext.parse("src/repro/config.py", "x = 1\n")
    assert not plain.is_kernel_module and not plain.is_cache_module


def test_kernel_module_suffixes_name_real_files():
    # A stale suffix silently drops a module out of SC004/SC005 scope.
    src = Path(__file__).resolve().parents[2] / "src"
    for suffix in KERNEL_MODULE_SUFFIXES:
        assert (src / suffix).is_file(), suffix
