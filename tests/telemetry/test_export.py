"""The run's JSONL trace: the session's event stream, record by record."""

import io
import json

import numpy as np

from repro.observability.live import EVENT_SCHEMA, EventStream
from repro.telemetry import TelemetrySession


def _traced_stream():
    """Trace a small run into a buffer; return the session and its lines."""
    buffer = io.StringIO()
    stream = EventStream([buffer], source="export-test")
    session = TelemetrySession("export-test", stream=stream)
    with session.span("measure", samples=64):
        with session.span("device", samples=64):
            session.record("phase", phase="PHI1")
    probe = session.probe(
        "cell",
        full_scale=6e-6,
        kind="memory_cell",
        quiescent_current=2e-6,
        supply_voltage=2.0,
    )
    probe.observe_array(np.array([8e-6, -8e-6]))
    session.evaluate_rules()
    stream.finish()
    return session, buffer.getvalue()


def _load():
    return [json.loads(line) for line in _traced_stream()[1].splitlines()]


class TestExport:
    def test_record_types_in_order(self):
        kinds = [record["event"] for record in _load()]
        assert kinds[0] == "stream_start"
        assert kinds[-1] == "stream_finish"
        assert kinds.count("span_start") == kinds.count("span_finish") == 3
        assert kinds.count("probe") == 1
        assert "finding" in kinds
        # The spans closed before the rules ran: their probes, then
        # the findings drawn from them.
        last_span = len(kinds) - 1 - kinds[::-1].index("span_finish")
        assert last_span < kinds.index("probe") < kinds.index("finding")

    def test_session_header_counts(self):
        records = _load()
        header, footer = records[0], records[-1]
        assert header["name"] == "export-test"
        assert header["schema"] == EVENT_SCHEMA
        assert footer["n_events"] == len(records) - 1
        assert [r["seq"] for r in records] == list(range(len(records)))

    def test_span_parent_links_rebuild_the_tree(self):
        spans = {
            record["id"]: record
            for record in _load()
            if record["event"] == "span_finish"
        }
        roots = [span for span in spans.values() if span["parent"] is None]
        assert [span["name"] for span in roots] == ["measure"]
        by_parent = {}
        for span in spans.values():
            by_parent.setdefault(span["parent"], []).append(span["name"])
        assert by_parent[roots[0]["id"]] == ["device"]

    def test_structural_span_serialises_null_duration(self):
        phase = next(
            record
            for record in _load()
            if record["event"] == "span_finish" and record["name"] == "phase"
        )
        assert phase["duration_s"] is None
        assert phase["attrs"]["phase"] == "PHI1"

    def test_probe_record_round_trips_statistics(self):
        session, text = _traced_stream()
        record = next(
            r for r in map(json.loads, text.splitlines()) if r["event"] == "probe"
        )
        probe = session.probes["cell"]
        assert record["name"] == "cell"
        assert record["count"] == probe.count
        assert record["rms"] == probe.rms
        assert record["meta"]["kind"] == "memory_cell"

    def test_event_record_carries_rule_and_severity(self):
        findings = [r for r in _load() if r["event"] == "finding"]
        assert {finding["name"] for finding in findings} == {"DYN002"}
        assert all(finding["severity"] == "ERROR" for finding in findings)
        assert all(finding["source"] == "cell" for finding in findings)

    def test_every_line_is_valid_json(self):
        for line in _traced_stream()[1].splitlines():
            json.loads(line)
