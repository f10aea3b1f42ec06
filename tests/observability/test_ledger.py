"""The run ledger: append-only JSONL, content addressing, tolerance."""

import json
import sys
import threading

import pytest

from repro.errors import ObservabilityError
from repro.observability.ledger import (
    DEFAULT_LEDGER_DIRNAME,
    LEDGER_ENV_DIR,
    LEDGER_SCHEMA,
    LedgerEntry,
    RunLedger,
    entry_id_for,
)

PROV = {
    "git_sha": "deadbeef",
    "git_dirty": False,
    "timestamp": "2026-08-08T00:00:00+00:00",
    "hostname": "rig",
    "cpu_count": 4,
}


class TestContentAddress:
    def test_same_content_same_id(self):
        a = entry_id_for("report", "mod2", {"x": 1, "y": [2.0]})
        b = entry_id_for("report", "mod2", {"y": [2.0], "x": 1})
        assert a == b
        assert a.startswith("sha256:")

    def test_kind_design_and_payload_all_distinguish(self):
        base = entry_id_for("report", "mod2", {"x": 1})
        assert entry_id_for("sweep", "mod2", {"x": 1}) != base
        assert entry_id_for("report", "mod1", {"x": 1}) != base
        assert entry_id_for("report", "mod2", {"x": 2}) != base

    def test_provenance_does_not_change_the_id(self, tmp_path):
        ledger = RunLedger(tmp_path)
        first = ledger.append("report", {"x": 1}, design="d", provenance=PROV)
        later = dict(PROV, timestamp="2026-08-09T00:00:00+00:00")
        second = ledger.append("report", {"x": 1}, design="d", provenance=later)
        assert first is not None
        assert second is None  # deduplicated despite new provenance


class TestCarriedProvenance:
    """A manifest's own provenance block becomes the entry's provenance."""

    def test_block_moves_out_of_the_payload(self, tmp_path):
        manifest = {"design": "d", "metrics": [1.0], "provenance": PROV}
        entry = RunLedger(tmp_path).append("report", manifest, design="d")
        assert entry is not None
        assert entry.provenance == PROV
        assert entry.payload == {"design": "d", "metrics": [1.0]}
        assert entry.entry_id == entry_id_for(
            "report", "d", {"design": "d", "metrics": [1.0]}
        )

    def test_a_remeasurement_dedupes(self, tmp_path):
        ledger = RunLedger(tmp_path)
        first = {"x": 1, "provenance": PROV}
        later = {"x": 1, "provenance": dict(PROV, timestamp="2026-08-09T00:00:00+00:00")}
        assert ledger.append("report", first, design="d") is not None
        assert ledger.append("report", later, design="d") is None


class TestAppend:
    def test_append_and_read_back(self, tmp_path):
        ledger = RunLedger(tmp_path)
        entry = ledger.append(
            "sweep", {"dynamic_range_db": 63.0}, design="mod2", provenance=PROV
        )
        assert entry is not None
        loaded = list(RunLedger(tmp_path).entries())
        assert len(loaded) == 1
        assert loaded[0].entry_id == entry.entry_id
        assert loaded[0].kind == "sweep"
        assert loaded[0].design == "mod2"
        assert loaded[0].payload == {"dynamic_range_db": 63.0}
        assert loaded[0].git_sha == "deadbeef"

    def test_append_is_one_line_per_entry(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append("sweep", {"v": 1}, design="d", provenance=PROV)
        ledger.append("sweep", {"v": 2}, design="d", provenance=PROV)
        lines = ledger.path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            assert json.loads(line)["schema"] == LEDGER_SCHEMA

    def test_duplicate_content_not_appended(self, tmp_path):
        ledger = RunLedger(tmp_path)
        assert ledger.append("bench", {"wall_s": 1.0}, provenance=PROV)
        assert ledger.append("bench", {"wall_s": 1.0}, provenance=PROV) is None
        assert len(ledger) == 1

    def test_default_provenance_is_collected(self, tmp_path):
        entry = RunLedger(tmp_path).append("report", {"x": 1}, design="d")
        assert entry is not None
        assert "timestamp" in entry.provenance
        assert "hostname" in entry.provenance
        assert "cpu_count" in entry.provenance

    def test_non_jsonable_payload_rejected(self, tmp_path):
        ledger = RunLedger(tmp_path)
        with pytest.raises(ObservabilityError):
            ledger.append("report", {"x": object()}, provenance=PROV)
        assert not ledger.path.exists()

    def test_reading_never_creates_the_directory(self, tmp_path):
        target = tmp_path / "nested" / "ledger"
        ledger = RunLedger(target)
        assert list(ledger.entries()) == []
        assert not target.exists()


class TestResolution:
    def test_env_var_overrides_default(self, monkeypatch, tmp_path):
        monkeypatch.setenv(LEDGER_ENV_DIR, str(tmp_path / "elsewhere"))
        assert RunLedger().directory == tmp_path / "elsewhere"

    def test_default_directory_without_env(self, monkeypatch):
        monkeypatch.delenv(LEDGER_ENV_DIR, raising=False)
        assert str(RunLedger().directory) == DEFAULT_LEDGER_DIRNAME

    def test_explicit_directory_wins_over_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(LEDGER_ENV_DIR, str(tmp_path / "env"))
        assert RunLedger(tmp_path / "arg").directory == tmp_path / "arg"


class TestTolerance:
    def test_torn_trailing_line_is_skipped(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append("sweep", {"v": 1}, design="d", provenance=PROV)
        with ledger.path.open("a") as handle:
            handle.write('{"schema": "repro.observability/ledger-entry/v1", "ki')
        assert len(list(RunLedger(tmp_path).entries())) == 1

    def test_foreign_lines_are_skipped(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.path.parent.mkdir(parents=True, exist_ok=True)
        ledger.path.write_text('{"schema": "other"}\n[1, 2]\n\n')
        ledger.append("sweep", {"v": 1}, design="d", provenance=PROV)
        entries = list(RunLedger(tmp_path).entries())
        assert len(entries) == 1

    def test_filters_by_design_and_kind(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append("sweep", {"v": 1}, design="a", provenance=PROV)
        ledger.append("report", {"v": 2}, design="a", provenance=PROV)
        ledger.append("sweep", {"v": 3}, design="b", provenance=PROV)
        assert len(list(ledger.entries(design="a"))) == 2
        assert len(list(ledger.entries(kind="sweep"))) == 2
        assert len(list(ledger.entries(design="a", kind="sweep"))) == 1
        assert ledger.designs() == ["a", "b"]


def _line(payload):
    """The line an append of a ``sweep`` entry for ``payload`` writes."""
    entry = LedgerEntry(entry_id_for("sweep", "d", payload), "sweep", "d", payload, PROV)
    return json.dumps(entry.as_dict(), sort_keys=True) + "\n"


class TestIncrementalReads:
    """One ledger serves many appends, reading only what is new on disk."""

    def test_another_writers_entry_is_deduplicated(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append("sweep", {"v": 1}, design="d", provenance=PROV)
        RunLedger(tmp_path).append("sweep", {"v": 2}, design="d", provenance=PROV)
        assert ledger.append("sweep", {"v": 2}, design="d", provenance=PROV) is None
        assert len(ledger) == 2

    def test_a_tail_without_its_newline_is_read_once_complete(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append("sweep", {"v": 1}, design="d", provenance=PROV)
        line = _line({"v": 2})
        with ledger.path.open("a") as handle:
            handle.write(line[:40])  # another writer, mid-line
        assert ledger.append("sweep", {"v": 1}, design="d", provenance=PROV) is None
        with ledger.path.open("a") as handle:
            handle.write(line[40:])
        assert ledger.append("sweep", {"v": 2}, design="d", provenance=PROV) is None
        assert len(ledger) == 2

    def test_a_shorter_file_is_read_from_the_start(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append("sweep", {"v": 1}, design="d", provenance=PROV)
        ledger.append("sweep", {"v": 2}, design="d", provenance=PROV)
        assert ledger.append("sweep", {"v": 2}, design="d", provenance=PROV) is None
        ledger.path.write_text(_line({"v": 3}))  # replaced, by one line of two
        assert ledger.append("sweep", {"v": 3}, design="d", provenance=PROV) is None
        assert ledger.append("sweep", {"v": 1}, design="d", provenance=PROV) is not None

    def test_concurrent_appends_of_one_entry_store_it_once(self, tmp_path):
        ledger = RunLedger(tmp_path)
        results = []
        start = threading.Barrier(8)

        def append():
            start.wait(timeout=30.0)
            results.append(ledger.append("sweep", {"v": 1}, design="d", provenance=PROV))

        threads = [threading.Thread(target=append) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 8
        assert sum(result is not None for result in results) == 1
        assert len(ledger.path.read_text().splitlines()) == 1


class TestEntryRoundTrip:
    def test_from_dict_rejects_wrong_schema(self):
        with pytest.raises(ObservabilityError):
            LedgerEntry.from_dict({"schema": "nope"})

    def test_from_dict_rejects_missing_payload(self):
        with pytest.raises(ObservabilityError):
            LedgerEntry.from_dict({"schema": LEDGER_SCHEMA, "kind": "report"})

    def test_from_dict_recomputes_missing_id(self):
        data = {
            "schema": LEDGER_SCHEMA,
            "kind": "report",
            "design": "d",
            "payload": {"x": 1},
            "provenance": dict(PROV),
        }
        entry = LedgerEntry.from_dict(data)
        assert entry.entry_id == entry_id_for("report", "d", {"x": 1})

    def test_as_dict_roundtrips(self):
        entry = LedgerEntry(
            entry_id=entry_id_for("bench", None, {"wall_s": 0.5}),
            kind="bench",
            design=None,
            payload={"wall_s": 0.5},
            provenance=dict(PROV),
        )
        again = LedgerEntry.from_dict(entry.as_dict())
        assert again == entry
