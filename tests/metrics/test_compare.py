"""Tests for the manifest comparison gate and its exit codes."""

import pytest

from repro.metrics import (
    DiffStatus,
    MetricRegistry,
    compare_manifests,
    manifest_from_registry,
    registry_for,
)


def _manifest(sndr=53.3, thd=-57.1, wall=0.4, design="modulator2", **config):
    registry = registry_for(design)
    registry.record("sndr_db", sndr, "span:test")
    registry.record("thd_db", thd, "span:test")
    registry.record("wall_s", wall, "span:test")
    return manifest_from_registry(
        registry, config={"n_samples": 16384, **config}
    )


class TestCompareVerdicts:
    def test_identical_manifests_pass(self):
        report = compare_manifests(_manifest(), _manifest())
        assert report.ok
        assert not report.warnings
        assert report.exit_code() == 0
        assert report.exit_code(strict=True) == 0

    def test_sndr_regression_fails(self):
        # The acceptance criterion: degrading SNDR by more than 1 dB
        # must exit non-zero and name the metric.
        report = compare_manifests(_manifest(sndr=52.0), _manifest(sndr=53.3))
        assert not report.ok
        assert report.exit_code() == 1
        assert [d.name for d in report.regressions] == ["sndr_db"]
        assert "sndr_db" in report.summary()

    def test_higher_sndr_warns_stale_baseline(self):
        report = compare_manifests(_manifest(sndr=55.0), _manifest(sndr=53.3))
        assert report.ok
        assert [d.name for d in report.warnings] == ["sndr_db"]
        assert report.exit_code() == 0
        assert report.exit_code(strict=True) == 1

    def test_lower_is_better_direction(self):
        # THD is a LOWER metric: rising past tolerance regresses.
        report = compare_manifests(_manifest(thd=-54.0), _manifest(thd=-57.1))
        assert [d.name for d in report.regressions] == ["thd_db"]

    def test_ungated_metric_never_fails(self):
        report = compare_manifests(_manifest(wall=40.0), _manifest(wall=0.4))
        wall = next(d for d in report.rows if d.name == "wall_s")
        assert wall.status is DiffStatus.INFO
        assert report.ok

    def test_paper_mismatch_warns(self):
        # 40 dB SNDR is within no baseline gate here (both sides equal)
        # but far outside the paper's published band -> WARN.
        report = compare_manifests(_manifest(sndr=40.0), _manifest(sndr=40.0))
        sndr = next(d for d in report.rows if d.name == "sndr_db")
        assert sndr.status is DiffStatus.PASS  # modulator2 has no sndr ref
        snr_report = compare_manifests(
            _manifest(thd=-40.0), _manifest(thd=-40.0)
        )
        thd = next(d for d in snr_report.rows if d.name == "thd_db")
        assert thd.status is DiffStatus.WARN
        assert "paper" in thd.note


class TestCompareStructure:
    def test_new_metric_warns(self):
        current = _manifest()
        baseline_registry = registry_for("modulator2")
        baseline_registry.record("sndr_db", 53.3)
        baseline = manifest_from_registry(
            baseline_registry, config={"n_samples": 16384}
        )
        report = compare_manifests(current, baseline)
        new = [
            d
            for d in report.rows
            if "NEW" in d.note and d.status is DiffStatus.WARN
        ]
        assert {d.name for d in new} == {"thd_db"}  # wall_s is ungated

    def test_missing_metric_warns(self):
        current_registry = registry_for("modulator2")
        current_registry.record("sndr_db", 53.3)
        current = manifest_from_registry(
            current_registry, config={"n_samples": 16384}
        )
        report = compare_manifests(current, _manifest())
        missing = [
            d
            for d in report.rows
            if "MISSING" in d.note and d.status is DiffStatus.WARN
        ]
        assert {d.name for d in missing} == {"thd_db"}

    def test_config_mismatch_noted_and_strict_fails(self):
        report = compare_manifests(
            _manifest(), _manifest(n_samples=65536)
        )
        assert any("n_samples" in note for note in report.notes)
        assert report.exit_code() == 0
        assert report.exit_code(strict=True) == 1

    def test_design_mismatch_noted(self):
        report = compare_manifests(_manifest(), _manifest(design="chopper"))
        assert any("design mismatch" in note for note in report.notes)

    def test_table_orders_worst_first(self):
        report = compare_manifests(
            _manifest(sndr=50.0, wall=9.9), _manifest(sndr=53.3)
        )
        table = report.render_table()
        assert table.index("REGRESS") < table.index("INFO")


class TestRenderedOutput:
    def test_table_names_the_regressed_metric(self):
        report = compare_manifests(_manifest(sndr=51.0), _manifest())
        table = report.render_table()
        assert "sndr_db" in table
        assert "REGRESS" in table
        assert "against a" in table

    @pytest.mark.parametrize("strict", [False, True])
    def test_summary_counts(self, strict):
        report = compare_manifests(_manifest(), _manifest())
        assert "0 regression(s)" in report.summary()
        assert report.exit_code(strict=strict) == 0
