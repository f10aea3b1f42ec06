"""One report answers the north star's four questions from its own files.

A cold and a warm ``repro report modulator2 --fast --jobs 2`` share a
cache and a ledger directory.  Each run leaves a manifest (M), a live
event stream (E) and a ledger entry; nothing else is read:

* which rung ran each device -- ``repro.engine.runs`` in M;
* what hit the cache -- ``repro.cache.*`` in M;
* where the time went per layer -- the ``span_finish`` events in E,
  including the forked shards;
* how the run compares with the trend -- ``repro trend`` over the
  ledger.
"""

import json
import os

import pytest

from repro.cli import main


def _series(manifest, name):
    """Return ``{labels: value}`` of one counter in M's instruments."""
    entry = manifest["instruments"]["instruments"].get(name)
    if entry is None:
        return {}
    return {
        tuple(sorted(series["labels"].items())): series["value"]
        for series in entry["series"]
    }


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Run the report cold, then warm; return {run: (M, E)} and the ledger."""
    root = tmp_path_factory.mktemp("explains-itself")
    patch = pytest.MonkeyPatch()
    patch.setattr("repro.runtime.executor.os.cpu_count", lambda: 2)
    out = {}
    try:
        for run in ("cold", "warm"):
            events, manifest = root / f"{run}.jsonl", root / f"{run}.json"
            argv = [
                "report", "modulator2", "--fast", "--jobs", "2",
                "--cache-dir", str(root / "cache"),
                "--ledger-dir", str(root / "ledger"),
                "--events", str(events), "--json", str(manifest),
            ]
            assert main(argv) == 0
            out[run] = (
                json.loads(manifest.read_text()),
                [json.loads(line) for line in events.read_text().splitlines()],
            )
    finally:
        patch.undo()
    return out, root / "ledger"


def test_which_rung_ran_each_device(runs):
    (cold, _), (warm, _) = runs[0]["cold"], runs[0]["warm"]
    device = (("device", "SIModulator2"), ("engine", "kernel"))
    # The measurement plus five sweep lanes, all on the compiled kernel.
    assert _series(cold, "repro.engine.runs") == {device: 6.0}
    # Warm: the sweep comes from the cache; only the measurement runs.
    assert _series(warm, "repro.engine.runs") == {device: 1.0}


def test_what_hit_the_cache(runs):
    (cold, _), (warm, _) = runs[0]["cold"], runs[0]["warm"]
    sweep = (("kind", "amplitude-sweep"),)
    assert _series(cold, "repro.cache.misses") == {sweep: 1.0}
    assert _series(cold, "repro.cache.hits") == {}
    assert _series(warm, "repro.cache.hits") == {sweep: 1.0}
    assert _series(warm, "repro.cache.misses") == {}


def test_where_the_time_went(runs):
    _, events = runs[0]["cold"]
    finished = {e["name"]: e for e in events if e["event"] == "span_finish"}
    for layer in ("measure", "stimulus", "device", "analysis", "sweep"):
        assert finished[layer]["duration_s"] > 0.0, layer
        assert finished[layer]["pid"] == os.getpid()
    shards = sorted(name for name in finished if name.startswith("shard:"))
    assert shards == ["shard:0", "shard:1"]
    for name in shards:
        assert finished[name]["pid"] != os.getpid()
        assert finished[name]["duration_s"] > 0.0
    assert [e["seq"] for e in events] == list(range(len(events)))
    assert [e["t"] for e in events] == sorted(e["t"] for e in events)


def test_how_the_run_compares_with_the_trend(runs, tmp_path, capsys):
    ledger = runs[1]
    target = tmp_path / "trend.json"
    assert main(["trend", "--ledger-dir", str(ledger), "--json", str(target)]) == 0
    findings = {
        finding["key"]: finding
        for finding in json.loads(target.read_text())["findings"]
    }
    sndr = findings["modulator2:sndr_db"]
    # Two recorded runs: both are in the series, too few to judge drift.
    assert sndr["n_runs"] == 2
    assert sndr["status"] == "INFO"
    assert sndr["values"][0] == sndr["values"][1]
