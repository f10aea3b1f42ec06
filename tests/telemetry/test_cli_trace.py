"""Tests for the ``repro trace`` CLI sub-command."""

import json

import pytest

from repro.cli import main
from repro.observability.live import EVENT_SCHEMA
from repro.telemetry.session import TelemetrySession
from repro.telemetry.spans import jsonable

# 8192 samples keeps the runs fast while leaving the stimulus tone
# clear of the analysis window's main lobe for every trace design.
FAST = ["--samples", "8192"]


class TestTraceCommand:
    def test_clean_trace_exits_zero(self, capsys):
        assert main(["trace", "delay-line", *FAST]) == 0
        output = capsys.readouterr().out
        assert "measure" in output
        assert "stimulus" in output
        assert "analysis" in output
        assert "delay_line.cell[0]" in output
        assert "PASS" in output

    def test_probe_table_shows_swing_and_clip(self, capsys):
        assert main(["trace", "modulator1", *FAST]) == 0
        output = capsys.readouterr().out
        assert "modulator1.int.cell" in output
        assert "swing" in output
        assert "clip" in output

    def test_overdrive_raises_dynamic_errors(self, capsys):
        assert main(["trace", "modulator1", *FAST, "--overdrive", "8"]) == 1
        output = capsys.readouterr().out
        assert "DYN004" in output
        assert "FAIL" in output

    def test_starved_supply_trips_headroom_rule(self, capsys):
        assert main(["trace", "delay-line", *FAST, "--supply", "2.4"]) == 1
        output = capsys.readouterr().out
        assert "DYN002" in output

    def test_json_export(self, tmp_path, capsys):
        target = tmp_path / "trace.jsonl"
        assert main(["trace", "delay-line", *FAST, "--json", str(target)]) == 0
        assert "trace written to" in capsys.readouterr().out
        records = [
            json.loads(line) for line in target.read_text().splitlines()
        ]
        assert records[0]["event"] == "stream_start"
        assert records[0]["schema"] == EVENT_SCHEMA
        assert records[0]["provenance"]["git_sha"]
        assert records[-1]["event"] == "stream_finish"
        assert any(record["event"] == "probe" for record in records)

    def test_alias_accepted(self, capsys):
        assert main(["trace", "mod1", *FAST]) == 0
        assert "modulator1" in capsys.readouterr().out

    def test_unknown_design_rejected(self):
        with pytest.raises(SystemExit):
            main(["trace", "frobnicator"])

    def test_help_lists_knobs(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "--help"])
        assert excinfo.value.code == 0
        output = capsys.readouterr().out
        assert "--overdrive" in output
        assert "--supply" in output
        assert "--json" in output


class TestTraceStream:
    """``--json`` writes the session's stream: its findings and probes."""

    @pytest.fixture()
    def sessions(self, monkeypatch):
        made = []

        class Recorded(TelemetrySession):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr("repro.telemetry.session.TelemetrySession", Recorded)
        return made

    @pytest.mark.parametrize(("overdrive", "code"), [("1", 0), ("8", 1)])
    def test_findings_and_probes_match_the_session(
        self, sessions, tmp_path, overdrive, code
    ):
        target = tmp_path / "trace.jsonl"
        argv = [
            "trace", "modulator1", "--samples", "8192",
            "--overdrive", overdrive, "--json", str(target),
        ]
        assert main(argv) == code
        (session,) = sessions
        assert bool(session.events) == bool(code)
        records = [json.loads(line) for line in target.read_text().splitlines()]
        findings = [
            (r["name"], r["severity"], r["source"], r["message"], r["sample_index"])
            for r in records
            if r["event"] == "finding"
        ]
        assert findings == [
            (e.rule, e.severity.name, e.source, e.message, e.sample_index)
            for e in session.events
        ]
        probes = {
            r["name"]: {k: v for k, v in r.items() if k not in ("t", "event", "seq")}
            for r in records
            if r["event"] == "probe"
        }
        assert probes == {
            name: jsonable(probe.as_record()) for name, probe in session.probes.items()
        }


class TestAnalysisRefusal:
    @pytest.mark.parametrize(
        "argv",
        [
            ["trace", "delay-line", "--samples", "1024"],
            ["trace", "mod2", "--fast", "--samples", "4096"],
            ["trace", "mod2", "--samples", "4096", "--strict"],
        ],
    )
    def test_record_below_the_analysis_floor_exits_two(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err
