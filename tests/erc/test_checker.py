"""Tests for run_erc/check_design, reports and the named designs."""

import pytest

from repro.config import delay_line_cell_config, paper_cell_config
from repro.deltasigma import SIModulator2
from repro.designs import design_names, resolve
from repro.erc import (
    ErcReport,
    Severity,
    check_design,
    default_registry,
    run_erc,
)
from repro.erc.graph import CircuitGraph
from repro.errors import ConfigurationError, ERCError
from repro.si import DelayLine


def bad_graph():
    """A graph violating ERC001 (no phase) and ERC005 (mis-scaled bias)."""
    graph = CircuitGraph("bad", supply_voltage=3.3)
    graph.add_node("c", "memory_cell", quiescent_current=2.0)
    return graph


class TestRunErc:
    @pytest.mark.parametrize("name", design_names())
    def test_every_named_design_is_error_free(self, name):
        report = run_erc(resolve(name).graph())
        assert report.ok, report.summary()

    def test_delay_line_reports_cmff_warning_only(self):
        report = run_erc(resolve("delay-line").graph())
        assert [v.rule for v in report.warnings] == ["ERC003"]
        assert report.regressions == ()

    def test_accepts_design_object(self):
        line = DelayLine(delay_line_cell_config(), n_cells=2)
        report = run_erc(line)
        assert isinstance(report, ErcReport)
        assert report.ok

    def test_bad_graph_reports_errors(self):
        report = run_erc(bad_graph())
        assert not report.ok
        assert {v.rule for v in report.regressions} == {"ERC001", "ERC005"}

    def test_min_severity_filters(self):
        report = run_erc(resolve("delay-line").graph(), min_severity=Severity.ERROR)
        assert report.violations == ()
        assert report.ok

    def test_custom_registry(self):
        registry = default_registry().without("ERC001", "ERC005")
        report = run_erc(bad_graph(), registry=registry)
        assert report.ok

    def test_rejects_graphless_object(self):
        with pytest.raises(ConfigurationError, match="describe_graph"):
            run_erc(object())

    def test_unknown_design_name(self):
        with pytest.raises(ConfigurationError, match="unknown design"):
            resolve("flux-capacitor")


class TestCheckDesign:
    def test_clean_design_returns_report(self):
        report = check_design(resolve("mod2").graph())
        assert report.ok

    def test_violating_design_raises_with_report(self):
        with pytest.raises(ERCError) as excinfo:
            check_design(bad_graph())
        assert "ERC FAIL" in str(excinfo.value)
        assert isinstance(excinfo.value.report, ErcReport)
        assert not excinfo.value.report.ok


class TestErcReport:
    def test_summary_and_table(self):
        report = run_erc(bad_graph())
        assert report.summary().startswith("ERC FAIL: bad --")
        table = report.render_table()
        assert "ERC report: bad" in table
        assert "ERC001" in table

    def test_empty_table_renders(self):
        report = run_erc(resolve("mod2").graph(), min_severity=Severity.ERROR)
        assert "no violations" in report.render_table()

    def test_filtered_keeps_design_name(self):
        report = run_erc(bad_graph(), min_severity=Severity.ERROR)
        assert report.design == "bad"
        assert all(v.severity >= Severity.ERROR for v in report.violations)


class TestDesignGraphs:
    def test_modulator_graph_structure(self):
        modulator = SIModulator2(cell_config=paper_cell_config())
        graph = modulator.describe_graph()
        assert len(list(graph.nodes("memory_cell"))) == 2
        assert len(list(graph.nodes("quantizer"))) == 1
        assert len(list(graph.nodes("dac"))) == 1
        assert graph.param("full_scale") == pytest.approx(6e-6)

    def test_chopper_graph_has_paired_choppers(self):
        graph = resolve("chopper").graph()
        roles = sorted(n.param("role") for n in graph.nodes("chopper"))
        assert roles == ["input", "output"]

    def test_biquad_cascade_alternates_phases(self):
        graph = resolve("biquad-cascade").graph()
        cells = list(graph.nodes("memory_cell"))
        assert len(cells) == 6  # 3 sections x 2 integrators
        assert all(n.param("sample_phase") is not None for n in cells)
