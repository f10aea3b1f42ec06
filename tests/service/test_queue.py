"""Job-queue semantics: dedup, cancellation, backpressure, crashes.

These tests drive :class:`repro.service.queue.JobQueue` directly with
stub runners (no HTTP, no simulations), using gate events to hold jobs
in deliberate states -- the queue's concurrency contract is what's
under test, not the engines behind it.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import QueueFullError, ServiceError
from repro.observability.instruments import InstrumentRegistry, set_registry
from repro.service.queue import JobQueue, JobRequest, JobState


def _request(tag: str) -> JobRequest:
    return JobRequest(kind="report", params={"design": tag})


def _blocking_runner(gate: threading.Event):
    """Return a runner that holds its job until ``gate`` is set."""

    def runner(job):
        gate.wait(timeout=10.0)
        return {}

    return runner


def _spin_until_running(job) -> None:
    """Busy-wait (bounded) until a worker claims ``job``."""
    import time

    deadline = time.monotonic() + 10.0
    while job.state is JobState.QUEUED:
        if time.monotonic() > deadline:  # pragma: no cover
            raise AssertionError("job never left QUEUED")
        time.sleep(0.001)


@pytest.fixture
def registry():
    """Run each test under a fresh process-wide instrument registry."""
    fresh = InstrumentRegistry()
    # The queue's worker threads count into the process registry, so
    # it is replaced, not scoped to this thread.
    previous = set_registry(fresh)
    try:
        yield fresh
    finally:
        set_registry(previous)


def _counter_value(registry: InstrumentRegistry, name: str, **labels) -> float:
    instruments = registry.snapshot().get("instruments", {})
    instrument = instruments.get(name, {})
    wanted = {k: str(v) for k, v in labels.items()}
    for series in instrument.get("series", []):
        if series.get("labels", {}) == wanted:
            return float(series.get("value", 0.0))
    return 0.0


class TestDedup:
    def test_concurrent_duplicates_coalesce_to_one_execution(self, registry):
        gate = threading.Event()
        runs: list[str] = []

        def runner(job):
            runs.append(job.id)
            gate.wait(timeout=10.0)
            return {"ok": True}

        queue = JobQueue(runner, workers=1)
        try:
            job1, disp1 = queue.submit(_request("mod2"))
            # Wait until the worker owns the job so the duplicate hits
            # the RUNNING (not QUEUED) coalescing branch too.
            _spin_until_running(job1)
            job2, disp2 = queue.submit(_request("mod2"))
            assert disp1 == "new"
            assert disp2 == "coalesced"
            assert job1 is job2
            gate.set()
            assert job1.wait(timeout=10.0)
            assert job1.state is JobState.DONE
            assert runs == [job1.id]
            assert _counter_value(
                registry, "repro.service.executed", kind="report"
            ) == 1.0
            assert _counter_value(
                registry, "repro.service.dedup_hits", mode="coalesced"
            ) == 1.0
        finally:
            gate.set()
            queue.close()

    def test_completed_job_reuses_stored_result(self, registry):
        queue = JobQueue(lambda job: {"n": 1}, workers=1)
        try:
            job1, _ = queue.submit(_request("mod2"))
            assert job1.wait(timeout=10.0)
            job2, disposition = queue.submit(_request("mod2"))
            assert disposition == "completed"
            assert job2 is job1
            assert job2.result == {"n": 1}
            assert _counter_value(
                registry, "repro.service.executed", kind="report"
            ) == 1.0
        finally:
            queue.close()

    def test_failed_job_is_retried_not_reused(self, registry):
        attempts: list[int] = []

        def runner(job):
            attempts.append(1)
            if len(attempts) == 1:
                raise ValueError("boom")
            return {"ok": True}

        queue = JobQueue(runner, workers=1)
        try:
            job1, _ = queue.submit(_request("mod2"))
            assert job1.wait(timeout=10.0)
            assert job1.state is JobState.FAILED
            assert "boom" in (job1.error or "")
            job2, disposition = queue.submit(_request("mod2"))
            assert disposition == "retried"
            assert job2 is not job1
            assert job2.wait(timeout=10.0)
            assert job2.state is JobState.DONE
        finally:
            queue.close()

    def test_digest_is_request_content_address(self):
        assert _request("a").digest() == _request("a").digest()
        assert _request("a").digest() != _request("b").digest()


class TestCancellation:
    def test_cancel_queued_job(self, registry):
        gate = threading.Event()
        queue = JobQueue(_blocking_runner(gate), workers=1)
        try:
            blocker, _ = queue.submit(_request("a"))
            _spin_until_running(blocker)
            queued, _ = queue.submit(_request("b"))
            assert queued.state is JobState.QUEUED
            assert queue.cancel(queued.id) is True
            assert queued.state is JobState.CANCELLED
            assert queued.wait(timeout=1.0)
            assert queued.events.closed
            assert _counter_value(
                registry, "repro.service.cancelled", kind="report"
            ) == 1.0
        finally:
            gate.set()
            queue.close()

    def test_cannot_cancel_running_or_done(self, registry):
        gate = threading.Event()
        queue = JobQueue(_blocking_runner(gate), workers=1)
        try:
            job, _ = queue.submit(_request("a"))
            _spin_until_running(job)
            assert queue.cancel(job.id) is False
            gate.set()
            assert job.wait(timeout=10.0)
            assert queue.cancel(job.id) is False
            assert queue.cancel("no-such-job") is False
        finally:
            gate.set()
            queue.close()


class TestBackpressure:
    def test_queue_full_rejects_new_requests(self, registry):
        gate = threading.Event()
        queue = JobQueue(
            _blocking_runner(gate),
            workers=1,
            max_pending=1,
        )
        try:
            running, _ = queue.submit(_request("a"))
            _spin_until_running(running)
            queued, _ = queue.submit(_request("b"))
            with pytest.raises(QueueFullError):
                queue.submit(_request("c"))
            # Duplicates of existing jobs still coalesce at zero cost.
            _, disposition = queue.submit(_request("b"))
            assert disposition == "coalesced"
            assert _counter_value(
                registry, "repro.service.rejected", kind="report"
            ) == 1.0
        finally:
            gate.set()
            queue.close()

    def test_invalid_construction(self):
        with pytest.raises(ServiceError):
            JobQueue(lambda job: {}, workers=0)
        with pytest.raises(ServiceError):
            JobQueue(lambda job: {}, max_pending=0)


class TestWorkerCrash:
    def test_crash_marks_failed_without_wedging_the_queue(self, registry):
        def runner(job):
            if job.request.params["design"] == "poison":
                raise RuntimeError("worker crash")
            return {"ok": True}

        queue = JobQueue(runner, workers=1)
        try:
            poisoned, _ = queue.submit(_request("poison"))
            healthy, _ = queue.submit(_request("fine"))
            assert poisoned.wait(timeout=10.0)
            assert healthy.wait(timeout=10.0)
            assert poisoned.state is JobState.FAILED
            assert poisoned.error is not None
            assert healthy.state is JobState.DONE
            assert _counter_value(
                registry, "repro.service.failed", kind="report"
            ) == 1.0
        finally:
            queue.close()

    def test_failed_job_event_stream_records_the_error(self, registry):
        def runner(job):
            raise RuntimeError("boom")

        queue = JobQueue(runner, workers=1)
        try:
            job, _ = queue.submit(_request("a"))
            assert job.wait(timeout=10.0)
            lines = job.events.lines()
            assert any('"job_finish"' in line for line in lines)
            assert any("boom" in line for line in lines)
            assert job.events.closed
        finally:
            queue.close()


class TestLifecycle:
    def test_close_cancels_pending_and_rejects_submissions(self, registry):
        gate = threading.Event()
        queue = JobQueue(_blocking_runner(gate), workers=1)
        running, _ = queue.submit(_request("a"))
        _spin_until_running(running)
        pending, _ = queue.submit(_request("b"))
        gate.set()
        queue.close()
        assert pending.state is JobState.CANCELLED
        with pytest.raises(ServiceError):
            queue.submit(_request("c"))

    def test_descriptor_shape(self, registry):
        queue = JobQueue(lambda job: {"ok": True}, workers=1)
        try:
            job, _ = queue.submit(_request("a"))
            assert job.wait(timeout=10.0)
            descriptor = job.descriptor()
            assert descriptor["id"] == job.id
            assert descriptor["kind"] == "report"
            assert descriptor["state"] == "done"
            assert descriptor["params"] == {"design": "a"}
            assert descriptor["n_events"] >= 2  # stream_start + job events
        finally:
            queue.close()


class TestFinishedJobBound:
    def test_oldest_finished_job_is_evicted_and_new_again(
        self, registry, monkeypatch
    ):
        monkeypatch.setattr("repro.service.queue.MAX_FINISHED_JOBS", 2)
        gate = threading.Event()

        def runner(job):
            if job.request.params["design"] == "held":
                gate.wait(timeout=10.0)
            return {"design": job.request.params["design"]}

        queue = JobQueue(runner, workers=1)
        try:
            first, _ = queue.submit(_request("first"))
            assert first.wait(timeout=10.0)
            for tag in ("second", "third"):
                job, _ = queue.submit(_request(tag))
                assert job.wait(timeout=10.0)
            assert queue.get(first.id) is None
            assert [job.request.params["design"] for job in queue.jobs()] == [
                "second",
                "third",
            ]
            # A running and a queued job outlive any number of finishes.
            held, _ = queue.submit(_request("held"))
            _spin_until_running(held)
            waiting, _ = queue.submit(_request("waiting"))
            again, disposition = queue.submit(_request("first"))
            assert disposition == "new"
            assert again is not first
            assert queue.get(held.id) is held
            assert queue.get(waiting.id) is waiting
            gate.set()
            for job in (held, waiting, again):
                assert job.wait(timeout=10.0)
            assert queue.get(again.id) is again
            assert queue.get(held.id) is None
        finally:
            gate.set()
            queue.close()
