"""Tests for run manifests, provenance stamping and bench telemetry."""

import json

import pytest

from repro.errors import MetricsError
from repro.metrics import (
    BENCH_SCHEMA,
    MANIFEST_SCHEMA,
    MetricRegistry,
    Provenance,
    RunManifest,
    collect_provenance,
    load_manifest,
    manifest_from_registry,
    write_bench_telemetry,
)
from repro.metrics.manifest import merge_bench_records


def _manifest(design="modulator2", sndr=53.3):
    registry = MetricRegistry(design)
    registry.record("sndr_db", sndr, "span:test")
    registry.record("power_mw", 2.6)
    return manifest_from_registry(
        registry, config={"n_samples": 16384, "amplitude": 3e-6}
    )


class TestProvenance:
    def test_collect_fills_every_field(self):
        stamp = collect_provenance(argv=["repro", "report", "mod2"])
        assert stamp.git_sha
        assert stamp.timestamp.endswith("+00:00")
        assert stamp.python_version
        assert stamp.numpy_version
        assert stamp.argv == ("repro", "report", "mod2")

    def test_dict_roundtrip(self):
        stamp = collect_provenance()
        assert Provenance.from_dict(stamp.as_dict()) == stamp

    def test_from_dict_tolerates_missing_fields(self):
        stamp = Provenance.from_dict({})
        assert stamp.git_sha == "unknown"


class TestProvenanceGitLookup:
    """git runs once per process and working directory, not per stamp."""

    @pytest.fixture
    def git_calls(self, monkeypatch):
        from repro.metrics import provenance

        calls = []
        real_run = provenance.subprocess.run

        def counting_run(argv, *args, **kwargs):
            calls.append(argv)
            return real_run(argv, *args, **kwargs)

        provenance._git_state.cache_clear()
        monkeypatch.setattr(provenance.subprocess, "run", counting_run)
        yield calls
        provenance._git_state.cache_clear()

    def test_second_collection_runs_no_git(self, git_calls):
        first = collect_provenance()
        assert len(git_calls) == 2  # rev-parse HEAD, status --porcelain
        second = collect_provenance()
        assert len(git_calls) == 2
        assert (second.git_sha, second.git_dirty) == (first.git_sha, first.git_dirty)

    def test_another_working_directory_is_collected_afresh(
        self, git_calls, monkeypatch, tmp_path
    ):
        collect_provenance()
        monkeypatch.chdir(tmp_path)
        collect_provenance()
        assert len(git_calls) == 4

    def test_timestamp_and_argv_stay_per_call(self, git_calls, monkeypatch):
        from datetime import datetime, timezone

        from repro.metrics import provenance

        ticks = iter(
            datetime(2026, 1, 1, 0, 0, second, tzinfo=timezone.utc)
            for second in (1, 2)
        )

        class Clock:
            @staticmethod
            def now(tz):
                return next(ticks)

        monkeypatch.setattr(provenance, "datetime", Clock)
        first = collect_provenance(argv=["repro", "a"])
        second = collect_provenance(argv=["repro", "b"])
        assert first.timestamp == "2026-01-01T00:00:01+00:00"
        assert second.timestamp == "2026-01-01T00:00:02+00:00"
        assert (first.argv, second.argv) == (("repro", "a"), ("repro", "b"))
        assert len(git_calls) == 2


class TestRunManifest:
    def test_json_roundtrip(self, tmp_path):
        manifest = _manifest()
        path = manifest.write_json(tmp_path / "m.json")
        loaded = load_manifest(path)
        assert loaded.design == "modulator2"
        assert loaded.config["n_samples"] == 16384
        assert loaded.get("sndr_db").value == 53.3
        assert loaded.provenance == manifest.provenance

    def test_schema_stamped(self, tmp_path):
        path = _manifest().write_json(tmp_path / "m.json")
        assert json.loads(path.read_text())["schema"] == MANIFEST_SCHEMA

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(MetricsError, match="not found"):
            load_manifest(tmp_path / "absent.json")

    def test_load_rejects_wrong_schema(self, tmp_path):
        target = tmp_path / "bad.json"
        target.write_text(json.dumps({"schema": "something/else"}))
        with pytest.raises(MetricsError, match="not a run manifest"):
            load_manifest(target)

    def test_empty_design_rejected(self):
        with pytest.raises(MetricsError, match="non-empty"):
            RunManifest(design="", metrics=[])

    def test_render_table_mentions_every_metric(self):
        table = _manifest().render_table()
        assert "sndr_db" in table
        assert "power_mw" in table

    def test_render_markdown_carries_provenance(self):
        markdown = _manifest().render_markdown()
        assert "git SHA" in markdown
        assert "| `sndr_db` |" in markdown


class TestBenchTelemetry:
    def test_merge_keeps_other_benchmarks(self):
        existing = {
            "records": [
                {"benchmark": "a", "wall_s": 1.0},
                {"benchmark": "b", "wall_s": 2.0},
            ]
        }
        merged = merge_bench_records(existing, [{"benchmark": "b", "wall_s": 9.0}])
        by_name = {entry["benchmark"]: entry for entry in merged}
        assert set(by_name) == {"a", "b"}
        assert by_name["b"]["wall_s"] == 9.0

    def test_partial_run_does_not_clobber(self, tmp_path):
        target = tmp_path / "BENCH_telemetry.json"
        write_bench_telemetry(target, [{"benchmark": "a", "wall_s": 1.0}])
        write_bench_telemetry(target, [{"benchmark": "b", "wall_s": 2.0}])
        payload = json.loads(target.read_text())
        assert payload["schema"] == BENCH_SCHEMA
        assert payload["n_benchmarks"] == 2
        assert payload["total_wall_s"] == pytest.approx(3.0)
        assert "provenance" in payload

    def test_legacy_alias_keys_preserved(self, tmp_path):
        target = tmp_path / "BENCH_telemetry.json"
        write_bench_telemetry(target, [{"benchmark": "a", "wall_s": 1.5}])
        payload = json.loads(target.read_text())
        # The pre-manifest consumers read exactly these keys.
        assert payload["n_benchmarks"] == 1
        assert payload["records"][0]["benchmark"] == "a"
