"""Tests for the metric registry and its per-design paper references."""

import pytest

from repro.designs import DESIGNS
from repro.errors import MetricsError
from repro.metrics import Direction, MetricRegistry, MetricSpec, registry_for
from repro.metrics.registry import BASE_SPECS


class TestMetricRegistry:
    def test_base_specs_declared_by_default(self):
        registry = MetricRegistry()
        assert {spec.name for spec in registry.specs} == {
            spec.name for spec in BASE_SPECS
        }

    def test_record_files_in_order(self):
        registry = MetricRegistry()
        registry.record("snr_db", 55.0)
        registry.record("thd_db", -57.0)
        assert [r.name for r in registry.records] == ["snr_db", "thd_db"]

    def test_rerecord_replaces_in_place(self):
        registry = MetricRegistry()
        registry.record("snr_db", 55.0)
        registry.record("thd_db", -57.0)
        registry.record("snr_db", 56.0)
        assert [r.name for r in registry.records] == ["snr_db", "thd_db"]
        assert registry.get("snr_db").value == 56.0

    def test_unknown_metric_rejected(self):
        registry = MetricRegistry()
        with pytest.raises(MetricsError, match="unknown metric"):
            registry.record("nonsense_db", 1.0)

    def test_redeclare_same_spec_is_idempotent(self):
        registry = MetricRegistry()
        registry.declare(registry.spec("snr_db"))

    def test_redeclare_conflicting_spec_rejected(self):
        registry = MetricRegistry()
        clash = MetricSpec(
            name="snr_db",
            unit="V",
            description="not the same",
            direction=Direction.LOWER,
        )
        with pytest.raises(MetricsError, match="already declared"):
            registry.declare(clash)


class TestRegistryFor:
    @pytest.mark.parametrize(
        "design", sorted(name for name, entry in DESIGNS.items() if entry.operating_point)
    )
    def test_paper_references_attached(self, design):
        registry = registry_for(design)
        assert registry.design == design
        for name, (value, band) in DESIGNS[design].references.items():
            spec = registry.spec(name)
            assert spec.paper_value == value
            assert spec.paper_tolerance == band

    def test_modulator2_snr_reference(self):
        spec = registry_for("modulator2").spec("snr_db")
        assert spec.paper_value == 58.0

    def test_delay_line_uses_pp_convention(self):
        registry = registry_for("delay-line")
        assert registry.spec("snr_pp_db").paper_value == 50.0
        assert registry.spec("snr_db").paper_value is None
