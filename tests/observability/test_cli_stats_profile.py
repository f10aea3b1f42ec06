"""CLI surface: ``repro stats``, ``repro stats --diff``, ``repro profile``."""

import json

import pytest

from repro.cli import main
from repro.observability.instruments import InstrumentRegistry

FAST_ARGS = ["--samples", "8192", "--levels", "-20", "-6"]


def _stats(tmp_path, name, **counters):
    registry = InstrumentRegistry()
    for counter, value in counters.items():
        registry.counter(counter.replace("__", ".")).inc(value)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(registry.snapshot()))
    return str(path)


class TestStats:
    def test_run_prints_counters_and_writes_document(self, capsys, tmp_path):
        json_path = tmp_path / "stats.json"
        args = [
            "stats",
            "modulator2",
            *FAST_ARGS,
            "--cache-dir",
            str(tmp_path / "cache"),
            "--json",
            str(json_path),
        ]
        assert main(args) == 0
        output = capsys.readouterr().out
        assert "instruments: modulator2" in output
        assert "repro.cache.misses" in output
        assert "repro.executor.shards" in output
        document = json.loads(json_path.read_text())
        assert document["design"] == "modulator2"
        assert document["config"]["levels_db"] == [-20.0, -6.0]
        names = document["snapshot"]["instruments"]
        assert "repro.cache.misses" in names

    def test_no_cache_run_has_no_cache_counters(self, capsys):
        assert main(["stats", "modulator2", *FAST_ARGS, "--no-cache"]) == 0
        output = capsys.readouterr().out
        assert "repro.cache.misses" not in output
        assert "repro.executor.shards" in output

    def test_prometheus_exposition(self, capsys):
        args = ["stats", "mod2", *FAST_ARGS, "--no-cache", "--prom"]
        assert main(args) == 0
        output = capsys.readouterr().out
        assert "# TYPE repro_executor_shards counter" in output

    def test_design_required_without_diff(self, capsys):
        assert main(["stats"]) == 2
        assert "design is required" in capsys.readouterr().err

    def test_unknown_design_is_a_usage_error(self, capsys):
        assert main(["stats", "frobnicator", "--no-cache"]) == 2
        assert "error" in capsys.readouterr().err


class TestStatsDiff:
    def test_identical_snapshots_pass(self, capsys, tmp_path):
        a = _stats(tmp_path, "a", repro__cache__hits=3.0)
        assert main(["stats", "--diff", a, a]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_gated_counter_increase_fails(self, capsys, tmp_path):
        current = _stats(tmp_path, "current", repro__executor__timeouts=1.0)
        baseline = _stats(tmp_path, "baseline")
        assert main(["stats", "--diff", current, baseline]) == 1
        assert "REGRESS" in capsys.readouterr().out

    def test_warn_gate_needs_strict(self, capsys, tmp_path):
        current = _stats(tmp_path, "current", repro__single__fallbacks=1.0)
        baseline = _stats(tmp_path, "baseline", repro__single__fallbacks=0.0)
        assert main(["stats", "--diff", current, baseline]) == 0
        capsys.readouterr()
        assert main(["stats", "--diff", current, baseline, "--strict"]) == 1

    def test_missing_document_is_a_usage_error(self, capsys, tmp_path):
        a = _stats(tmp_path, "a")
        assert main(["stats", "--diff", str(tmp_path / "nope.json"), a]) == 2
        assert "error" in capsys.readouterr().err


class TestProfile:
    @pytest.fixture
    def spec_path(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {
                    "design": "modulator2",
                    "levels_db": [-20.0, -6.0],
                    "full_scale": 0.5,
                    "signal_frequency": 2000.0,
                    "sample_rate": 1.0e6,
                    "n_samples": 8192,
                    "bandwidth": 10000.0,
                    "settle_samples": 64,
                }
            )
        )
        return str(path)

    def test_sweep_spec_profile(self, capsys, spec_path, tmp_path):
        json_path = tmp_path / "profile.json"
        args = [
            "profile",
            spec_path,
            "--no-cache",
            "--json",
            str(json_path),
        ]
        assert main(args) == 0
        output = capsys.readouterr().out
        assert "span tree" in output
        assert "shard:0" in output
        assert "self [ms]" in output or "self" in output
        document = json.loads(json_path.read_text())
        assert document["schema"] == "repro.observability/profile/v3"
        assert document["target"] == spec_path
        names = [row["name"] for row in document["rows"]]
        assert "sweep" in names and "shard:0" in names
        assert "sweep;shard:0" in document["collapsed_stacks"]
        assert document["spans"][0]["name"] == "sweep"
        shard = next(r for r in document["spans"] if r["name"] == "shard:0")
        assert shard["parent"] == document["spans"][0]["id"]

    def test_missing_spec_is_a_usage_error(self, capsys, tmp_path):
        assert main(["profile", str(tmp_path / "absent.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_unknown_design_is_a_usage_error(self, capsys):
        assert main(["profile", "frobnicator", "--fast"]) == 2
        assert "error" in capsys.readouterr().err
