"""Tests for the dynamic-rule monitor: DYN001-DYN004."""

import numpy as np

from repro.erc.rules import MAX_MODELED_MODULATION_INDEX, Severity
from repro.telemetry import TelemetrySession, default_monitor
from repro.telemetry.monitor import (
    ClipRule,
    CmffResidualRule,
    DynamicRuleMonitor,
    ObservedClassABRule,
    ObservedHeadroomRule,
)


def _cell_probe(session, peak, quiescent=2e-6, supply=3.3, **extra):
    """Register a memory-cell probe and feed it a +/-peak square wave."""
    probe = session.probe(
        "cell",
        kind="memory_cell",
        quiescent_current=quiescent,
        supply_voltage=supply,
        **extra,
    )
    probe.observe_array(np.array([peak, -peak, 0.0]))
    return probe


class TestClipRule:
    def test_quiet_probe_raises_nothing(self):
        session = TelemetrySession(monitor=DynamicRuleMonitor([ClipRule()]))
        probe = session.probe("sig", clip_limit=1.0)
        probe.observe_array(np.zeros(100))
        assert session.evaluate_rules() == ()

    def test_rare_clip_is_warning(self):
        session = TelemetrySession(monitor=DynamicRuleMonitor([ClipRule()]))
        probe = session.probe("sig", clip_limit=1.0)
        values = np.zeros(1000)
        values[500] = 2.0
        probe.observe_array(values)
        (event,) = session.evaluate_rules()
        assert event.rule == "DYN001"
        assert event.severity is Severity.WARNING
        assert event.sample_index == 500

    def test_frequent_clip_escalates_to_error(self):
        session = TelemetrySession(monitor=DynamicRuleMonitor([ClipRule()]))
        probe = session.probe("sig", clip_limit=1.0)
        values = np.zeros(100)
        values[10:20] = 5.0
        probe.observe_array(values)
        (event,) = session.evaluate_rules()
        assert event.severity is Severity.ERROR
        assert not session.gate.ok


class TestObservedHeadroomRule:
    def test_nominal_swing_fits_the_paper_supply(self):
        session = TelemetrySession(
            monitor=DynamicRuleMonitor([ObservedHeadroomRule()])
        )
        _cell_probe(session, peak=8e-6, supply=3.3)
        assert session.evaluate_rules() == ()

    def test_starved_supply_raises_error(self):
        # m_i = 4 needs about 2.44 V (Eq. 2); 2.4 V is short of it.
        session = TelemetrySession(
            monitor=DynamicRuleMonitor([ObservedHeadroomRule()])
        )
        _cell_probe(session, peak=8e-6, supply=2.4)
        (event,) = session.evaluate_rules()
        assert event.rule == "DYN002"
        assert event.severity is Severity.ERROR
        assert event.source == "cell"
        assert "V_dd" in event.message

    def test_probe_without_metadata_is_skipped(self):
        session = TelemetrySession(
            monitor=DynamicRuleMonitor([ObservedHeadroomRule()])
        )
        probe = session.probe("anonymous")
        probe.observe(1.0)
        assert session.evaluate_rules() == ()


class TestCmffResidualRule:
    def test_small_residual_passes(self):
        session = TelemetrySession(
            monitor=DynamicRuleMonitor([CmffResidualRule()])
        )
        probe = session.probe("cmff", full_scale=6e-6, kind="cmff_residual")
        probe.observe_array(np.full(100, 1e-8))
        assert session.evaluate_rules() == ()

    def test_large_residual_warns(self):
        session = TelemetrySession(
            monitor=DynamicRuleMonitor([CmffResidualRule()])
        )
        probe = session.probe("cmff", full_scale=6e-6, kind="cmff_residual")
        probe.observe_array(np.full(100, 1e-6))
        (event,) = session.evaluate_rules()
        assert event.rule == "DYN003"
        assert event.severity is Severity.WARNING


class TestObservedClassABRule:
    def test_within_modeled_range_passes(self):
        session = TelemetrySession(
            monitor=DynamicRuleMonitor([ObservedClassABRule()])
        )
        _cell_probe(session, peak=MAX_MODELED_MODULATION_INDEX * 2e-6)
        assert session.evaluate_rules() == ()

    def test_beyond_modeled_range_errors(self):
        session = TelemetrySession(
            monitor=DynamicRuleMonitor([ObservedClassABRule()])
        )
        _cell_probe(session, peak=30e-6)
        (event,) = session.evaluate_rules()
        assert event.rule == "DYN004"
        assert event.severity is Severity.ERROR
        assert "modulation index 15.0" in event.message

    def test_class_a_cells_exempt(self):
        session = TelemetrySession(
            monitor=DynamicRuleMonitor([ObservedClassABRule()])
        )
        _cell_probe(session, peak=30e-6, cell_class="class_a")
        assert session.evaluate_rules() == ()

    def test_per_probe_limit_override(self):
        session = TelemetrySession(
            monitor=DynamicRuleMonitor([ObservedClassABRule()])
        )
        _cell_probe(session, peak=6e-6, max_modulation_index=2.0)
        (event,) = session.evaluate_rules()
        assert "range of 2" in event.message


class TestSessionEvaluation:
    def test_default_monitor_holds_four_rules(self):
        assert len(default_monitor()) == 4

    def test_evaluation_is_idempotent(self):
        session = TelemetrySession()
        _cell_probe(session, peak=30e-6)
        first = session.evaluate_rules()
        second = session.evaluate_rules()
        assert first == second
        assert len(session.events) == len(second)

    def test_error_and_warning_partitions(self):
        session = TelemetrySession()
        _cell_probe(session, peak=30e-6, supply=2.4)
        session.evaluate_rules()
        assert session.gate.regressions
        assert not session.gate.ok
        assert all(e.severity is Severity.ERROR for e in session.gate.regressions)


class TestStarvedDesignEndToEnd:
    def test_delay_line_at_starved_supply_fails_dynamically(self):
        """A design that passes static ERC (declared 3.3 V graph) fails
        the dynamic headroom rule when its probes declare the actual,
        starved supply."""
        from repro.config import delay_line_cell_config
        from repro.si.delay_line import DelayLine
        from repro.systems.testbench import TestBench

        session = TelemetrySession("starved")
        line = DelayLine(delay_line_cell_config(), n_cells=2)
        line.attach_telemetry(session, supply_voltage=2.4)
        bench = TestBench(
            sample_rate=5e6,
            n_samples=1 << 12,
            settle_samples=0,
            telemetry=session,
        )
        bench.measure(line, amplitude=8e-6, frequency=5e3)
        assert not session.gate.ok
        codes = {event.rule for event in session.gate.regressions}
        assert "DYN002" in codes

    def test_same_design_at_full_supply_passes(self):
        from repro.config import delay_line_cell_config
        from repro.si.delay_line import DelayLine
        from repro.systems.testbench import TestBench

        session = TelemetrySession("nominal")
        line = DelayLine(delay_line_cell_config(), n_cells=2)
        line.attach_telemetry(session)
        bench = TestBench(
            sample_rate=5e6,
            n_samples=1 << 12,
            settle_samples=0,
            telemetry=session,
        )
        bench.measure(line, amplitude=8e-6, frequency=5e3)
        assert session.gate.ok
