"""HTTP API tests against a live threaded server on an ephemeral port.

Most tests swap the service's queue for one with a stub runner, so the
HTTP contract (status codes, dedup dispositions, byte-identity, event
tailing) is exercised without running simulations.  The integration
tests at the bottom run one real (reduced-size) report job end to end,
including the run-ledger recording contract.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.designs import design_names
from repro.errors import QueueFullError, ServiceError
from repro.observability.instruments import InstrumentRegistry, set_registry
from repro.service import (
    ServiceClient,
    ServiceConfig,
    SimulationService,
    build_server,
)
from repro.service.app import MAX_REQUEST_SAMPLES
from repro.service.queue import JobQueue


@pytest.fixture(autouse=True)
def _fresh_registry():
    # Server and queue threads count into the process registry, so it
    # is replaced, not scoped to this thread.
    previous = set_registry(InstrumentRegistry())
    try:
        yield
    finally:
        set_registry(previous)


class _Harness:
    """A live server bound to port 0 plus its client and gate."""

    def __init__(self, service: SimulationService) -> None:
        self.service = service
        self.server = build_server(service, port=0)
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self.thread.start()
        port = self.server.server_address[1]
        self.client = ServiceClient(f"http://127.0.0.1:{port}", timeout_s=10.0)

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.service.close()


@pytest.fixture
def harness(tmp_path):
    """A server whose queue runs a gated stub instead of simulations."""
    gate = threading.Event()

    def stub_runner(job):
        if job.request.params.get("mismatch") == 0.5:
            raise RuntimeError("stub failure")
        gate.wait(timeout=10.0)
        return {"kind": job.request.kind, "params": dict(job.request.params)}

    service = SimulationService(
        ServiceConfig(cache_dir=str(tmp_path / "cache"), ledger=False)
    )
    service.queue.close()
    service.queue = JobQueue(stub_runner, workers=1, max_pending=2)
    h = _Harness(service)
    h.gate = gate
    gate.set()  # default: jobs complete immediately; tests may clear
    yield h
    gate.set()
    h.close()


REQ = {"kind": "report", "design": "modulator2", "n_samples": 8192}


class TestEndpoints:
    def test_health(self, harness):
        health = harness.client.health()
        assert health["status"] == "ok"
        assert health["uptime_s"] >= 0.0

    def test_unknown_routes_404(self, harness):
        with pytest.raises(ServiceError, match="404"):
            harness.client._request("GET", "/nope")
        with pytest.raises(ServiceError, match="404"):
            harness.client.job("not-a-job")

    def test_invalid_request_400(self, harness):
        with pytest.raises(ServiceError, match="design"):
            harness.client.submit({"design": "no-such-design"})

    def test_non_numeric_sweep_levels_400(self, harness):
        spec = {
            "design": "modulator2",
            "levels_db": ["abc"],
            "full_scale": 2e-6,
            "signal_frequency": 1953.125,
            "sample_rate": 1_000_000.0,
            "n_samples": 8192,
            "bandwidth": 3400.0,
        }
        with pytest.raises(ServiceError, match="HTTP 400.*levels_db"):
            harness.client.submit({"kind": "sweep", "spec": spec})

    @pytest.mark.parametrize(
        "body",
        [
            {"design": "modulator2", "noise_scale": float("nan")},
            {
                "kind": "sweep",
                "spec": {
                    "design": "modulator2",
                    "levels_db": [-6.0],
                    "full_scale": 2e-6,
                    "signal_frequency": 1953.125,
                    "sample_rate": 1_000_000.0,
                    "n_samples": 8192,
                    "bandwidth": 3400.0,
                    "noise_scale": float("nan"),
                },
            },
        ],
        ids=["report", "sweep"],
    )
    def test_nan_noise_scale_400_before_any_job(self, harness, body):
        # The client writes the NaN literal and the server's json.loads
        # reads it back; such a job used to run noiseless and succeed.
        with pytest.raises(ServiceError, match="HTTP 400.*noise_scale"):
            harness.client.submit(body)
        assert harness.client.jobs() == []

    @pytest.mark.parametrize(
        "body",
        [
            {"design": "modulator2", "n_samples": 10**12},
            {
                "kind": "sweep",
                "spec": {
                    "design": "modulator2",
                    "levels_db": [-6.0],
                    "full_scale": 2e-6,
                    "signal_frequency": 1953.125,
                    "sample_rate": 1_000_000.0,
                    "n_samples": 10**12,
                    "bandwidth": 3400.0,
                },
            },
        ],
        ids=["report", "sweep"],
    )
    def test_oversized_run_400_names_the_ceiling(self, harness, body):
        with pytest.raises(
            ServiceError, match=f"HTTP 400.*n_samples must be <= {MAX_REQUEST_SAMPLES}"
        ):
            harness.client.submit(body)
        assert harness.client.jobs() == []

    @pytest.mark.parametrize("design", ["biquad-cascade", "flux-capacitor"])
    def test_unrunnable_design_400_names_the_designs(self, harness, design):
        # An ERC-only catalog design has nothing to measure: refused
        # like an unknown name, and either way the error lists the
        # designs the service does run.
        with pytest.raises(ServiceError, match="HTTP 400") as excinfo:
            harness.client.submit({"design": design})
        for name in design_names(runnable=True):
            assert name in str(excinfo.value)

    def test_statsz_prometheus_and_json(self, harness):
        harness.client.submit(REQ)
        text = harness.client.stats_text()
        assert "repro_service_submitted" in text
        snapshot = harness.client.stats()
        assert "repro.service.submitted" in snapshot.get("instruments", {})

    def test_job_listing(self, harness):
        descriptor = harness.client.submit(REQ)
        listed = harness.client.jobs()
        assert [job["id"] for job in listed] == [descriptor["id"]]


class TestDedupOverHTTP:
    def test_three_submissions_one_execution_identical_bytes(self, harness):
        harness.gate.clear()
        d1 = harness.client.submit(REQ)
        d2 = harness.client.submit(dict(REQ, design="mod2"))  # alias
        d3 = harness.client.submit(REQ)
        assert d1["disposition"] == "new"
        assert {d2["disposition"], d3["disposition"]} == {"coalesced"}
        assert d1["id"] == d2["id"] == d3["id"]
        harness.gate.set()

        payloads = [
            harness.client.result_bytes(d["id"], timeout_s=10.0)
            for d in (d1, d2, d3)
        ]
        assert payloads[0] == payloads[1] == payloads[2]

        instruments = harness.client.stats().get("instruments", {})
        executed = sum(
            float(series["value"])
            for series in instruments["repro.service.executed"]["series"]
        )
        coalesced = sum(
            float(series["value"])
            for series in instruments["repro.service.dedup_hits"]["series"]
            if series.get("labels", {}).get("mode") == "coalesced"
        )
        assert executed == 1.0
        assert coalesced == 2.0

    def test_completed_job_served_from_store(self, harness):
        d1 = harness.client.submit(REQ)
        first = harness.client.result_bytes(d1["id"], timeout_s=10.0)
        d2 = harness.client.submit(REQ)
        assert d2["disposition"] == "completed"
        assert harness.client.result_bytes(d2["id"], timeout_s=10.0) == first


class TestResultStates:
    def test_failed_job_returns_500(self, harness):
        descriptor = harness.client.submit(dict(REQ, mismatch=0.5))
        job = harness.service.queue.get(descriptor["id"])
        assert job.wait(timeout=10.0)
        with pytest.raises(ServiceError, match="stub failure"):
            harness.client.result_bytes(descriptor["id"], timeout_s=10.0)

    def test_pending_result_is_202_descriptor(self, harness):
        harness.gate.clear()
        descriptor = harness.client.submit(REQ)
        status, payload = harness.client._request(
            "GET", f"/jobs/{descriptor['id']}/result"
        )
        assert status == 202
        assert json.loads(payload)["state"] in ("queued", "running")
        harness.gate.set()

    def test_cancel_queued_then_410(self, harness):
        harness.gate.clear()
        blocker = harness.client.submit(REQ)
        queued = harness.client.submit(dict(REQ, noise_scale=2.0))
        assert queued["state"] == "queued"
        cancelled = harness.client.cancel(queued["id"])
        assert cancelled["state"] == "cancelled"
        with pytest.raises(ServiceError, match="410"):
            harness.client.result_bytes(queued["id"], timeout_s=5.0)
        # The running blocker cannot be cancelled.
        with pytest.raises(ServiceError, match="409"):
            harness.client.cancel(blocker["id"])
        harness.gate.set()

    def test_queue_full_is_429(self, harness):
        harness.gate.clear()
        first = harness.client.submit(REQ)  # claimed by the worker
        # The worker pops a job when it starts it; until then the job
        # still holds one of the two pending places.
        deadline = time.monotonic() + 10.0
        while harness.client.job(first["id"])["started_at"] is None:
            assert time.monotonic() < deadline, "the worker never started the first job"
            time.sleep(0.005)
        harness.client.submit(dict(REQ, noise_scale=2.0))  # pending 1
        harness.client.submit(dict(REQ, noise_scale=3.0))  # pending 2
        with pytest.raises(QueueFullError):
            harness.client.submit(dict(REQ, noise_scale=4.0))
        harness.gate.set()


class TestEvents:
    def test_event_log_is_seq_monotonic_ndjson(self, harness):
        descriptor = harness.client.submit(REQ)
        harness.client.result_bytes(descriptor["id"], timeout_s=10.0)
        events = list(harness.client.events(descriptor["id"]))
        assert events, "expected at least the stream_start event"
        seqs = [event["seq"] for event in events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)
        kinds = [event["event"] for event in events]
        assert kinds[0] == "stream_start"
        assert "job_start" in kinds
        assert "job_finish" in kinds
        assert kinds[-1] == "stream_finish"

    def test_follow_streams_until_terminal(self, harness):
        descriptor = harness.client.submit(REQ)
        # follow=1 blocks until the job's buffer closes, then the
        # iterator ends -- a completed job terminates promptly.
        harness.client.result_bytes(descriptor["id"], timeout_s=10.0)
        events = list(harness.client.events(descriptor["id"], follow=True))
        assert events[-1]["event"] == "stream_finish"


class TestRealSimulation:
    """End-to-end: real report job, reduced size, through HTTP."""

    def _serve(self, tmp_path, ledger: bool):
        service = SimulationService(
            ServiceConfig(
                cache_dir=str(tmp_path / "cache"),
                ledger=ledger,
                ledger_dir=str(tmp_path / "ledger"),
            )
        )
        return _Harness(service)

    def test_report_manifest_and_ledger(self, tmp_path):
        from repro.observability.ledger import RunLedger

        harness = self._serve(tmp_path, ledger=True)
        try:
            descriptor = harness.client.submit(
                {"design": "mod2", "n_samples": 8192, "sweep": False}
            )
            manifest = harness.client.result(
                descriptor["id"], timeout_s=120.0
            )
            assert manifest["schema"] == "repro.metrics/run-manifest/v1"
            assert manifest["design"] == "modulator2"
            assert any(
                record["name"] == "sndr_db" for record in manifest["metrics"]
            )
            # Satellite: every service-executed run lands in the ledger.
            entries = list(RunLedger(str(tmp_path / "ledger")).entries())
            assert len(entries) == 1
            assert entries[0].kind == "report"
            assert entries[0].design == "modulator2"
        finally:
            harness.close()

    def test_no_ledger_opt_out(self, tmp_path):
        harness = self._serve(tmp_path, ledger=False)
        try:
            descriptor = harness.client.submit(
                {"design": "mod2", "n_samples": 8192, "sweep": False}
            )
            harness.client.result(descriptor["id"], timeout_s=120.0)
            assert not (tmp_path / "ledger").exists()
        finally:
            harness.close()
