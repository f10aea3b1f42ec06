"""CLI surface: run-ledger appends, ``repro history``, ``repro trend``."""

import json

from repro.cli import main
from repro.observability.ledger import RunLedger

FAST_SWEEP = ["--samples", "4096", "--levels", "-20", "-6", "--no-cache"]


def _ledger_dir(tmp_path):
    return str(tmp_path / "ledger")


def _seed_drifting_ledger(directory, values):
    ledger = RunLedger(directory)
    for index, value in enumerate(values):
        ledger.append(
            "sweep",
            {"dynamic_range_db": value, "run": index},
            design="modulator2",
            provenance={
                "git_sha": f"sha{index:04d}",
                "timestamp": f"2026-08-{index + 1:02d}T00:00:00+00:00",
            },
        )
    return ledger


class TestSweepLedger:
    def test_sweep_appends_one_entry(self, capsys, tmp_path):
        directory = _ledger_dir(tmp_path)
        args = ["sweep", "mod2", *FAST_SWEEP, "--ledger-dir", directory]
        assert main(args) == 0
        assert "appended to" in capsys.readouterr().out
        entries = list(RunLedger(directory).entries())
        assert len(entries) == 1
        assert entries[0].kind == "sweep"
        assert entries[0].design == "modulator2"
        assert "sndr_db" in entries[0].payload
        assert "timestamp" in entries[0].provenance
        assert "hostname" in entries[0].provenance

    def test_identical_rerun_dedupes(self, capsys, tmp_path):
        directory = _ledger_dir(tmp_path)
        args = ["sweep", "mod2", *FAST_SWEEP, "--ledger-dir", directory]
        assert main(args) == 0
        assert main(args) == 0
        assert "already in" in capsys.readouterr().out
        assert len(list(RunLedger(directory).entries())) == 1

    def test_no_ledger_skips_the_append(self, capsys, tmp_path):
        directory = _ledger_dir(tmp_path)
        args = [
            "sweep", "mod2", *FAST_SWEEP, "--no-ledger",
            "--ledger-dir", directory,
        ]
        assert main(args) == 0
        assert "ledger" not in capsys.readouterr().out
        assert list(RunLedger(directory).entries()) == []

    def test_env_var_directs_the_append(self, monkeypatch, tmp_path):
        directory = _ledger_dir(tmp_path)
        monkeypatch.setenv("REPRO_LEDGER_DIR", directory)
        assert main(["sweep", "mod2", *FAST_SWEEP]) == 0
        assert len(list(RunLedger(directory).entries())) == 1


class TestSweepEvents:
    def test_events_file_holds_ordered_timeline(self, tmp_path):
        directory = _ledger_dir(tmp_path)
        target = tmp_path / "events.jsonl"
        args = [
            "sweep", "mod2", *FAST_SWEEP,
            "--ledger-dir", directory, "--events", str(target),
        ]
        assert main(args) == 0
        records = [json.loads(l) for l in target.read_text().splitlines()]
        assert records[0]["event"] == "stream_start"
        assert records[-1]["event"] == "stream_finish"
        assert [r["seq"] for r in records] == list(range(len(records)))
        times = [r["t"] for r in records]
        assert times == sorted(times)
        assert any(r["event"] == "span_start" and r["name"] == "sweep"
                   for r in records)
        assert any(r["name"].startswith("shard:") for r in records)

    def test_follow_streams_to_stderr(self, capsys, tmp_path):
        args = [
            "sweep", "mod2", *FAST_SWEEP,
            "--ledger-dir", _ledger_dir(tmp_path), "--follow",
        ]
        assert main(args) == 0
        err = capsys.readouterr().err
        assert '"stream_start"' in err
        assert '"span_finish"' in err


class TestHistory:
    def test_history_renders_recorded_runs(self, capsys, tmp_path):
        directory = _ledger_dir(tmp_path)
        _seed_drifting_ledger(directory, [60.0, 61.0, 62.0])
        assert main(["history", "modulator2", "--ledger-dir", directory]) == 0
        output = capsys.readouterr().out
        assert "history: modulator2" in output
        assert "sweep.dynamic_range_db" in output

    def test_history_unknown_design_lists_known(self, capsys, tmp_path):
        # A catalog design with no runs yet: empty history, plus a
        # pointer to the designs that have some.
        directory = _ledger_dir(tmp_path)
        _seed_drifting_ledger(directory, [60.0])
        assert main(["history", "chopper", "--ledger-dir", directory]) == 0
        output = capsys.readouterr().out
        assert "no ledger history" in output
        assert "designs with history: modulator2" in output

    def test_history_resolves_an_alias(self, capsys, tmp_path):
        directory = _ledger_dir(tmp_path)
        _seed_drifting_ledger(directory, [60.0, 61.0, 62.0])
        assert main(["history", "mod2", "--ledger-dir", directory]) == 0
        output = capsys.readouterr().out
        assert "history: modulator2" in output
        assert "sweep.dynamic_range_db" in output
        assert "no ledger history" not in output

    def test_history_refuses_a_name_outside_the_catalog(self, capsys, tmp_path):
        directory = _ledger_dir(tmp_path)
        _seed_drifting_ledger(directory, [60.0])
        assert main(["history", "flux-capacitor", "--ledger-dir", directory]) == 2
        captured = capsys.readouterr()
        assert "unknown design 'flux-capacitor'; available: " in captured.err
        assert "modulator2" in captured.err
        assert captured.out == ""


class TestTrend:
    def test_synthetic_drift_fails_the_gate(self, capsys, tmp_path):
        directory = _ledger_dir(tmp_path)
        values = [57.0 + 0.01 * i for i in range(8)] + [50.0, 49.5, 49.0]
        _seed_drifting_ledger(directory, values)
        assert main(["trend", "--strict", "--ledger-dir", directory]) == 1
        output = capsys.readouterr().out
        assert "REGRESS" in output
        assert "sustained drift" in output

    def test_stable_ledger_passes_strict(self, capsys, tmp_path):
        directory = _ledger_dir(tmp_path)
        _seed_drifting_ledger(directory, [57.0 + 0.001 * i for i in range(10)])
        assert main(["trend", "--strict", "--ledger-dir", directory]) == 0
        assert "trend PASS" in capsys.readouterr().out

    def test_trend_writes_json_document(self, tmp_path):
        directory = _ledger_dir(tmp_path)
        _seed_drifting_ledger(directory, [57.0, 57.1])
        target = tmp_path / "trend.json"
        args = ["trend", "--ledger-dir", directory, "--json", str(target)]
        assert main(args) == 0
        document = json.loads(target.read_text())
        assert document["findings"][0]["status"] == "INFO"

    def test_design_filter_and_knobs(self, capsys, tmp_path):
        directory = _ledger_dir(tmp_path)
        values = [57.0] * 6 + [50.0, 50.0]
        _seed_drifting_ledger(directory, values)
        args = [
            "trend", "modulator2", "--ledger-dir", directory,
            "--window", "5", "--sustain", "2", "--threshold", "3.0",
        ]
        assert main(args) == 1
        assert "REGRESS" in capsys.readouterr().out

    def test_design_filter_resolves_an_alias(self, capsys, tmp_path):
        directory = _ledger_dir(tmp_path)
        _seed_drifting_ledger(directory, [57.0] * 6 + [50.0, 50.0])
        knobs = ["--window", "5", "--sustain", "2", "--threshold", "3.0"]
        assert main(["trend", "mod2", "--ledger-dir", directory, *knobs]) == 1
        by_alias = capsys.readouterr().out
        assert main(["trend", "modulator2", "--ledger-dir", directory, *knobs]) == 1
        assert by_alias == capsys.readouterr().out
        assert "REGRESS" in by_alias

    def test_design_filter_refuses_a_name_outside_the_catalog(
        self, capsys, tmp_path
    ):
        directory = _ledger_dir(tmp_path)
        _seed_drifting_ledger(directory, [57.0, 57.1])
        args = ["trend", "flux-capacitor", "--strict", "--ledger-dir", directory]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert "unknown design 'flux-capacitor'; available: " in captured.err
        assert captured.out == ""

    def test_empty_ledger_passes(self, capsys, tmp_path):
        assert main(["trend", "--ledger-dir", _ledger_dir(tmp_path)]) == 0
        assert "ledger is empty" in capsys.readouterr().out


class TestReportLedger:
    def test_report_appends_manifest_entry(self, capsys, tmp_path):
        directory = _ledger_dir(tmp_path)
        args = [
            "report", "delay-line", "--samples", "8192",
            "--no-cache", "--ledger-dir", directory,
        ]
        assert main(args) == 0
        entries = list(RunLedger(directory).entries())
        assert len(entries) == 1
        assert entries[0].kind == "report"
        assert entries[0].design == "delay-line"
        # The manifest's provenance block moved onto the entry; the
        # payload holds the metric records trend analysis reads.
        assert "provenance" not in entries[0].payload
        assert isinstance(entries[0].payload.get("metrics"), list)
        assert entries[0].provenance.get("git_sha")


class TestBenchGateLedger:
    def _write_gate_inputs(self, tmp_path):
        telemetry = tmp_path / "telemetry.json"
        telemetry.write_text(json.dumps({
            "records": [{"benchmark": "test_bench", "wall_s": 1.0}],
        }))
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "schema": "repro.metrics/bench-baseline/v1",
            "tolerance": 0.25,
            "benchmarks": {"test_bench": {"wall_s": 10.0}},
        }))
        return str(telemetry), str(baseline)

    def test_bench_gate_appends_verdict(self, capsys, tmp_path):
        directory = _ledger_dir(tmp_path)
        telemetry, baseline = self._write_gate_inputs(tmp_path)
        args = [
            "bench-gate", "--telemetry", telemetry, "--baseline", baseline,
            "--ledger-dir", directory,
        ]
        assert main(args) == 0
        entries = list(RunLedger(directory).entries())
        assert len(entries) == 1
        assert entries[0].kind == "bench-gate"
        assert entries[0].design is None
        assert entries[0].payload["ok"] is True
        rows = entries[0].payload["rows"]
        assert rows[0]["benchmark"] == "test_bench"

    def test_no_ledger_skips(self, tmp_path):
        directory = _ledger_dir(tmp_path)
        telemetry, baseline = self._write_gate_inputs(tmp_path)
        args = [
            "bench-gate", "--telemetry", telemetry, "--baseline", baseline,
            "--no-ledger", "--ledger-dir", directory,
        ]
        assert main(args) == 0
        assert list(RunLedger(directory).entries()) == []
