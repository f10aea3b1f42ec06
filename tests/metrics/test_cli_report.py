"""Tests for the ``repro report`` / ``repro compare`` CLI sub-commands.

The report runs use the delay line at 8192 samples: the fastest design
whose 5 kHz tone clears the analysis window at that length, so every
test stays well under a second of simulation.
"""

import json

import pytest

from repro.cli import main
from repro.metrics import MANIFEST_SCHEMA, build_report

FAST = ["--samples", "8192"]


@pytest.fixture(scope="module")
def baseline_path(tmp_path_factory):
    """A golden delay-line manifest measured once for the module."""
    target = tmp_path_factory.mktemp("baseline") / "delay-line.json"
    build_report("delay-line", n_samples=8192).write_json(target)
    return target


class TestReportCommand:
    def test_report_prints_manifest_table(self, capsys):
        assert main(["report", "delay-line", *FAST]) == 0
        output = capsys.readouterr().out
        assert "run manifest: delay-line" in output
        assert "thd_db" in output
        assert "gain_error" in output

    def test_report_writes_json(self, tmp_path, capsys):
        target = tmp_path / "m.json"
        assert main(["report", "delay-line", *FAST, "--json", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert payload["schema"] == MANIFEST_SCHEMA
        assert payload["design"] == "delay-line"
        assert payload["provenance"]["git_sha"]
        # The CLI stamps its own argv into the manifest.
        assert "report" in " ".join(payload["provenance"]["argv"])

    def test_report_writes_markdown(self, tmp_path, capsys):
        target = tmp_path / "m.md"
        assert (
            main(["report", "delay-line", *FAST, "--markdown", str(target)]) == 0
        )
        assert "## Run manifest: `delay-line`" in target.read_text()

    def test_report_rejects_unknown_design(self, capsys):
        with pytest.raises(SystemExit):
            main(["report", "not-a-design"])

    def test_record_below_the_analysis_floor_exits_two(self, tmp_path, capsys):
        argv = ["report", "mod2", "--samples", "4096", "--no-cache", "--no-ledger"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: fundamental is too close to DC for the window's main lobe\n"
        )


class TestCompareCommand:
    def test_self_compare_passes(self, baseline_path, tmp_path, capsys):
        current = tmp_path / "current.json"
        build_report("delay-line", n_samples=8192).write_json(current)
        code = main(
            ["compare", str(current), "--baseline", str(baseline_path)]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "compare PASS" in output

    def test_degraded_run_fails_and_names_metric(
        self, baseline_path, tmp_path, capsys
    ):
        # The acceptance criterion: artificially degrading the noise
        # floor must exit non-zero with a diff table naming the metric.
        current = tmp_path / "degraded.json"
        build_report("delay-line", n_samples=8192, noise_scale=3.0).write_json(
            current
        )
        code = main(
            ["compare", str(current), "--baseline", str(baseline_path)]
        )
        output = capsys.readouterr().out
        assert code == 1
        assert "compare FAIL" in output
        assert "REGRESS" in output
        assert "noise_rms_na" in output

    def test_missing_manifest_exits_two(self, capsys):
        assert main(["compare", "/nonexistent/m.json"]) == 2
        assert "error:" in capsys.readouterr().err
