"""Analyzer vs runtime: the lowerability rules may never disagree.

Every SC010/SC012 finding carries the exact
:class:`~repro.runtime.batch.BatchUnsupported` message it predicts.
These tests put that claim under load from both directions:

* each synthetic case below is **both** statically analyzed (as
  source) and executed (as code) -- when the analyzer predicts a
  refusal the runtime must raise it verbatim, and when the analyzer
  stays silent the runtime must lower the device;
* every registered trace design must lower, matching the zero
  lowerability findings ``repro lint`` reports on the repo sources.
"""

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pytest

from repro.config import MODULATOR_CLOCK, paper_cell_config
from repro.deltasigma.modulator1 import SIModulator1
from repro.designs import DESIGNS
from repro.runtime.batch import BatchUnsupported, batch_runner_for
from repro.staticcheck import run_lint
from repro.staticcheck.lowerability import LOWERABILITY_RULES
from repro.staticcheck.model import ModuleContext

REPO_ROOT = Path(__file__).resolve().parents[2]

N_LANES = 2
N_STEPS = 16


def lowerability_findings(source: str):
    """Run only the lowerability rules over a source string."""
    module = ModuleContext.parse("case.py", source)
    findings = []
    for rule_cls in LOWERABILITY_RULES:
        findings.extend(rule_cls().check(module))
    return findings


@dataclass(frozen=True)
class Case:
    name: str
    source: str
    build: Callable[[dict], object]
    expected_findings: int


def _cell(ns, classname, **kwargs):
    return ns[classname](paper_cell_config(), **kwargs)


CASES = [
    Case(
        name="cell-behavioural-override-refuses",
        source=(
            "from repro.si.memory_cell import ClassABMemoryCell\n"
            "\n"
            "\n"
            "class TamperedCell(ClassABMemoryCell):\n"
            "    def run(self, differential_input):\n"
            "        return differential_input\n"
        ),
        build=lambda ns: _cell(ns, "TamperedCell"),
        expected_findings=1,
    ),
    Case(
        name="cell-metadata-override-lowers",
        source=(
            "from repro.si.memory_cell import ClassABMemoryCell\n"
            "\n"
            "\n"
            "class AnnotatedCell(ClassABMemoryCell):\n"
            "    def __init__(self, config, label='cell'):\n"
            "        super().__init__(config)\n"
            "        self.label = label\n"
        ),
        build=lambda ns: _cell(ns, "AnnotatedCell"),
        expected_findings=0,
    ),
    Case(
        name="delay-line-step-override-refuses",
        source=(
            "from repro.si.delay_line import DelayLine\n"
            "\n"
            "\n"
            "class TamperedLine(DelayLine):\n"
            "    def step(self, sample):\n"
            "        return sample\n"
        ),
        build=lambda ns: ns["TamperedLine"](paper_cell_config(), n_cells=2),
        expected_findings=1,
    ),
    Case(
        name="quantizer-subclass-refuses",
        source=(
            "from repro.deltasigma.quantizer import CurrentQuantizer\n"
            "\n"
            "\n"
            "class SoftQuantizer(CurrentQuantizer):\n"
            "    def decide(self, input_current):\n"
            "        return 1\n"
        ),
        build=lambda ns: SIModulator1(
            cell_config=paper_cell_config(sample_rate=MODULATOR_CLOCK),
            quantizer=ns["SoftQuantizer"](),
        ),
        expected_findings=1,
    ),
    Case(
        name="dac-subclass-refuses",
        source=(
            "from repro.deltasigma.dac import FeedbackDac\n"
            "\n"
            "\n"
            "class LoggingDac(FeedbackDac):\n"
            "    pass\n"
        ),
        build=lambda ns: SIModulator1(
            cell_config=paper_cell_config(sample_rate=MODULATOR_CLOCK),
            dac=ns["LoggingDac"](),
        ),
        expected_findings=1,
    ),
    Case(
        name="unpaired-probe-refuses",
        source=(
            "from repro.telemetry.probes import SignalProbe\n"
            "\n"
            "\n"
            "class PeakProbe(SignalProbe):\n"
            "    def observe(self, value):\n"
            "        super().observe(value)\n"
        ),
        build=lambda ns: _probed_cell(ns, "PeakProbe"),
        expected_findings=1,
    ),
    Case(
        name="paired-probe-lowers",
        source=(
            "from repro.telemetry.probes import SignalProbe\n"
            "\n"
            "\n"
            "class MirrorProbe(SignalProbe):\n"
            "    def observe(self, value):\n"
            "        super().observe(value)\n"
            "\n"
            "    def observe_array(self, values):\n"
            "        super().observe_array(values)\n"
        ),
        build=lambda ns: _probed_cell(ns, "MirrorProbe"),
        expected_findings=0,
    ),
]


def _probed_cell(ns, probe_classname):
    from repro.si.memory_cell import ClassABMemoryCell

    cell = ClassABMemoryCell(paper_cell_config())
    cell._probe = ns[probe_classname]("cell.input")
    return cell


@pytest.mark.parametrize("case", CASES, ids=[c.name for c in CASES])
def test_analyzer_and_runtime_agree(case):
    findings = lowerability_findings(case.source)
    assert len(findings) == case.expected_findings

    namespace: dict = {}
    exec(compile(case.source, case.name, "exec"), namespace)
    device = case.build(namespace)

    if findings:
        (finding,) = findings
        assert finding.predicts is not None
        with pytest.raises(BatchUnsupported) as excinfo:
            batch_runner_for(device, N_LANES, N_STEPS)
        assert str(excinfo.value) == finding.predicts
    else:
        runner = batch_runner_for(device, N_LANES, N_STEPS)
        assert runner is not None


@pytest.mark.parametrize(
    "name", sorted(name for name, design in DESIGNS.items() if design.operating_point)
)
def test_every_trace_design_lowers(name):
    """The positive half of the agreement: registered designs lower."""
    device = DESIGNS[name].build()
    runner = batch_runner_for(device, N_LANES, N_STEPS)
    assert runner is not None


def test_repo_sources_predict_no_unbaselined_refusals(monkeypatch):
    """The analyzer agrees the shipped designs lower: linting src/repro
    with the committed baseline leaves no lowerability findings."""
    monkeypatch.chdir(REPO_ROOT)
    report = run_lint(
        ["src/repro"], baseline=REPO_ROOT / "baselines" / "staticcheck.json"
    )
    codes = {f.rule for f in report.findings}
    assert not codes & {"SC010", "SC012"}
    # The baseline is empty: nothing in the shipped sources needs a
    # suppression any more (DitheredQuantizer joined the protocol and
    # every RNG site is seeded at the API boundary).
    assert not report.suppressed
