"""Tests for the command-line interface."""

import argparse
import gc
import inspect
import re
import sys
from pathlib import Path

import pytest

from repro.cli import VERBS, build_parser, entry, list_commands, main
from repro.runtime.sweeps import MIN_LANE_SAMPLES

#: Verb names in table order.
NAMES = [name for name, _, _, _ in VERBS]


def _subparsers():
    """Return each verb's parser, by name."""
    parser = build_parser()
    action = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return action.choices


def _option_strings(sub):
    return {flag for action in sub._actions for flag in action.option_strings}


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
        for name in NAMES:
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
                    "8192",
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
            "8192",
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


class TestVerbTable:
    """``--list``, ``--help`` and dispatch all read the one verb table."""

    def test_list_prints_one_line_per_row_in_table_order(self):
        lines = list_commands().splitlines()
        assert [line.split()[0] for line in lines] == NAMES
        for line, (_, summary, _, _) in zip(lines, VERBS):
            assert line.endswith(summary)

    def test_help_lists_the_verbs_in_table_order(self):
        text = build_parser().format_help()
        listed = re.findall(r"^    (\S+)", text, flags=re.MULTILINE)
        assert listed == NAMES

    def test_every_verb_has_a_parser(self):
        assert list(_subparsers()) == NAMES

    @pytest.mark.parametrize("name", NAMES)
    def test_handler_binds_its_parser_dests(self, name):
        # main() calls the handler with the parsed options by dest, after
        # folding --samples into n_samples; a dest the handler does not
        # take (or a parameter no option fills) fails here, not only when
        # the verb runs.
        sub = _subparsers()[name]
        dests = {a.dest for a in sub._actions if a.dest != "help"}
        dests |= set(sub._defaults)
        handler = sub._defaults["run"]
        dests -= {"run", "samples"}
        inspect.signature(handler).bind(**dict.fromkeys(dests))


#: Verbs whose parser declares --jobs.
JOBS_VERBS = [name for name, sub in _subparsers().items() if "--jobs" in _option_strings(sub)]


class TestCountOptions:
    def test_the_jobs_verbs(self):
        assert JOBS_VERBS == ["report", "sweep", "stats", "profile", "serve"]

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("name", JOBS_VERBS)
    def test_jobs_below_one_is_a_usage_error(self, name, value, capsys):
        # Parsed only: a serve that parsed would start serving.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([name, "--jobs", value])
        assert excinfo.value.code == 2
        assert "argument --jobs: must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_history_limit_below_one_is_a_usage_error(self, value, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["history", "modulator2", "--limit", value, "--ledger-dir", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "argument --limit: must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1", "4096"])
    @pytest.mark.parametrize("name", ["sweep", "stats"])
    def test_lane_samples_below_the_floor_is_a_usage_error(self, name, value, capsys):
        # Parsed only: below the floor these verbs used to run 8K lanes
        # for any N, 0 and negatives included.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([name, "modulator2", "--samples", value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --samples: must be >= {MIN_LANE_SAMPLES}, got {value}" in err

    @pytest.mark.parametrize("name", ["sweep", "stats"])
    def test_lane_samples_at_the_floor_parse(self, name):
        options = build_parser().parse_args([name, "modulator2", "--samples", "8192"])
        assert options.samples == MIN_LANE_SAMPLES

    def test_serve_port_past_65535_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--port", "65536"])
        assert excinfo.value.code == 2
        assert "argument --port: must be in 0..65535" in capsys.readouterr().err

    def test_serve_port_zero_parses(self):
        options = build_parser().parse_args(["serve", "--port", "0"])
        assert options.port == 0


class TestRefusals:
    """A knob the model refuses is one ``error:`` line and exit 2."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["report", "delay-line", "--samples", "16384", "--noise-scale", "-1"],
                "error: noise_scale must be non-negative",
            ),
            (
                ["report", "modulator2", "--samples", "16384", "--mismatch", "nan",
                 "--no-sweep"],
                "error: mismatch must be in (-1, 1), got nan",
            ),
            (
                ["report", "modulator2", "--samples", "16384", "--noise-scale", "inf",
                 "--no-sweep"],
                "error: noise_scale must be non-negative and finite, got inf",
            ),
            (
                ["sweep", "modulator2", "--samples", "8192", "--levels", "nan", "-6"],
                "error: levels_db must be finite",
            ),
        ],
    )
    def test_refused_with_one_error_line(self, argv, message, capsys):
        assert main([*argv, "--no-cache", "--no-ledger"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert len(err.splitlines()) == 1


class TestApiDocs:
    def test_api_md_tables_exactly_the_cli_verbs(self):
        text = (Path(__file__).parents[1] / "docs" / "API.md").read_text()
        section = text.split("## `repro.cli`", 1)[1].split("\n## ", 1)[0]
        rows = section.split("|---|---|---|\n", 1)[1].split("\n\n", 1)[0]
        assert [row.split("|")[1].strip() for row in rows.splitlines()] == NAMES
