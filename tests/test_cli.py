"""Tests for the command-line interface."""

import gc
import sys

import pytest

from repro.cli import COMMANDS, entry, main


class TestEntryPoint:
    def test_main_never_freezes_the_collector(self, capsys):
        assert main(["headroom"]) == 0
        assert gc.get_freeze_count() == 0

    def test_entry_freezes_after_main_returns(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["repro", "headroom"])
        try:
            assert entry() == 0
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()
        assert "V_dd,min" in capsys.readouterr().out


class TestArgumentHandling:
    def test_list_flag(self, capsys):
        assert main(["--list"]) == 0
        output = capsys.readouterr().out
        for name in COMMANDS:
            assert name in output

    def test_no_command_lists(self, capsys):
        assert main([]) == 0
        assert "table1" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestFastCommands:
    def test_headroom(self, capsys):
        assert main(["headroom"]) == 0
        output = capsys.readouterr().out
        assert "V_dd,min" in output
        assert "yes" in output

    def test_tradeoff(self, capsys):
        assert main(["tradeoff"]) == 0
        output = capsys.readouterr().out
        assert "double-poly" in output
        assert "SI (single-poly digital CMOS)" in output

    def test_table1_fast(self, capsys):
        assert main(["table1", "--fast"]) == 0
        output = capsys.readouterr().out
        assert "THD" in output
        assert "-50 dB" in output

    def test_fig5_fast(self, capsys):
        assert main(["fig5", "--fast"]) == 0
        output = capsys.readouterr().out
        assert "SNR (10 kHz)" in output

    def test_fig6_fast(self, capsys):
        assert main(["fig6", "--fast"]) == 0
        assert "chopper" in capsys.readouterr().out.lower()


class TestSweepCommand:
    def test_sweep_fast(self, capsys, tmp_path):
        assert (
            main(
                [
                    "sweep",
                    "modulator2",
                    "--samples",
                    "4096",
                    "--levels",
                    "-20",
                    "-6",
                    "--no-cache",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "SNDR" in output
        assert "-20 dB" in output
        assert "cache" not in output.lower() or "off" in output.lower()

    def test_sweep_cache_round_trip(self, capsys, tmp_path):
        args = [
            "sweep",
            "modulator2",
            "--samples",
            "4096",
            "--levels",
            "-6",
            "--cache-dir",
            str(tmp_path),
            "--json",
            str(tmp_path / "sweep.json"),
        ]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "hit" in warm.lower()
        assert (tmp_path / "sweep.json").exists()
        # The numbers table must be identical either way.
        cold_rows = [line for line in cold.splitlines() if "dB" in line]
        warm_rows = [line for line in warm.splitlines() if "dB" in line]
        assert cold_rows == warm_rows


class TestBenchGateCommand:
    def _write(self, path, payload):
        import json

        path.write_text(json.dumps(payload))
        return str(path)

    def test_gate_passes_within_baseline(self, capsys, tmp_path):
        telemetry = self._write(
            tmp_path / "telemetry.json",
            {
                "schema": "repro.metrics/bench-telemetry/v1",
                "records": [{"benchmark": "bench_a", "wall_s": 1.0}],
            },
        )
        baseline = self._write(
            tmp_path / "baseline.json",
            {
                "schema": "repro.metrics/bench-baseline/v1",
                "tolerance": 0.25,
                "benchmarks": {"bench_a": {"wall_s": 1.0}},
            },
        )
        assert main(["bench-gate", "--telemetry", telemetry, "--baseline", baseline]) == 0
        assert "within baseline" in capsys.readouterr().out

    def test_gate_fails_on_regression(self, capsys, tmp_path):
        telemetry = self._write(
            tmp_path / "telemetry.json",
            {
                "schema": "repro.metrics/bench-telemetry/v1",
                "records": [{"benchmark": "bench_a", "wall_s": 2.0}],
            },
        )
        baseline = self._write(
            tmp_path / "baseline.json",
            {
                "schema": "repro.metrics/bench-baseline/v1",
                "benchmarks": {"bench_a": {"wall_s": 1.0}},
            },
        )
        assert main(["bench-gate", "--telemetry", telemetry, "--baseline", baseline]) == 1

    def test_gate_missing_telemetry_is_an_error(self, tmp_path):
        baseline = self._write(
            tmp_path / "baseline.json",
            {
                "schema": "repro.metrics/bench-baseline/v1",
                "benchmarks": {},
            },
        )
        assert (
            main(
                [
                    "bench-gate",
                    "--telemetry",
                    str(tmp_path / "missing.json"),
                    "--baseline",
                    baseline,
                ]
            )
            == 2
        )
