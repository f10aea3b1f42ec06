"""Threaded job queue with content-addressed request dedup.

The queue sits between the HTTP layer and the simulation engines: a
client POSTs a normalized request, the queue addresses it by the same
SHA-256 canonical-JSON digest :class:`~repro.runtime.cache.ResultCache`
uses for result entries, and identical requests collapse onto one
:class:`Job` -- in flight *or* already finished:

* a duplicate of a QUEUED/RUNNING job is **coalesced**: the caller gets
  the existing job and waits on the same future, so N identical
  submissions execute exactly once;
* a duplicate of a DONE job is **completed**: the stored result is
  served straight back (byte-identical -- there is only one result
  object, serialized once per read);
* a duplicate of a FAILED/CANCELLED job is **retried**: failures are
  not content-addressed facts, so the dead job is replaced by a fresh
  one under the same digest.

Execution is a pool of daemon worker threads draining a deque under a
condition variable.  A worker that crashes inside the runner marks the
job FAILED and keeps draining -- one poisoned request never wedges the
queue.  When ``max_pending`` queued jobs exist, further *new* requests
are rejected with :class:`~repro.errors.QueueFullError` (backpressure;
duplicates still coalesce, they cost nothing).  At most
:data:`MAX_FINISHED_JOBS` terminal jobs are kept, the oldest-finished
evicted first; a queued or running job is never evicted, and an
evicted request is simply new again.

Every transition is accounted in the process-wide instrument registry
(``repro.service.*`` counters, the ``queue_depth`` gauge and the
``job_seconds`` histogram) so ``GET /statsz`` can prove dedup worked,
and every job carries an :class:`~repro.observability.live.EventBuffer`
that its :class:`~repro.observability.live.EventStream` writes into,
which is what ``GET /jobs/<id>/events`` tails.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Mapping

from repro.errors import QueueFullError, ServiceError
from repro.observability.instruments import get_registry
from repro.observability.live import EventBuffer, EventStream
from repro.runtime.cache import ResultCache

__all__ = [
    "Job",
    "JobQueue",
    "JobRequest",
    "JobState",
    "MAX_FINISHED_JOBS",
    "TERMINAL_STATES",
]

#: Terminal jobs kept, each with its result and its event buffer (a
#: 16K modulator2 report's holds about 7 KB of events), so a
#: long-lived server's memory stays bounded.  A 20 s perfbench
#: service-mix run creates a few hundred jobs; the bound sits far
#: above that so every repeat there still finds its finished job and
#: the mix's dedup does not change.
MAX_FINISHED_JOBS = 1024

#: Latency buckets (seconds) for the job-duration histogram: service
#: jobs span sub-second cached replays to multi-minute 64K sweeps.
_JOB_BUCKETS: tuple[float, ...] = (
    0.01,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
    120.0,
    300.0,
)


class JobState(str, Enum):
    """Lifecycle of a job (see ``docs/SERVICE.md`` for the diagram)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: States a job never leaves; a duplicate submission of a terminal
#: failure is a retry, of a terminal success a completed-result hit.
TERMINAL_STATES = frozenset(
    {JobState.DONE, JobState.FAILED, JobState.CANCELLED}
)


@dataclass(frozen=True)
class JobRequest:
    """A normalized, JSON-ready simulation request.

    ``params`` must already be canonical (aliases resolved, defaults
    filled, report knobs as floats): the digest is computed over exactly these
    fields, and two requests dedup iff their normalized forms match.
    """

    kind: str
    params: Mapping[str, Any]

    def digest(self) -> str:
        """Return the content address of this request.

        Reuses :meth:`ResultCache.key_digest`, so the job id inherits
        the cache's schema/version stamping: a package upgrade
        invalidates service-level dedup exactly when it invalidates
        cached results.
        """
        return ResultCache.key_digest(
            {"kind": self.kind, "params": dict(self.params)}
        )


class Job:
    """One unit of queued work plus its observable state.

    Attributes
    ----------
    id:
        The request digest -- content address and HTTP identifier.
    events:
        The tailable line buffer the job's event stream writes into.
    stream:
        The job's :class:`EventStream`; runners hang a telemetry
        session on it so span events appear live under ``/events``.
    """

    def __init__(self, request: JobRequest) -> None:
        self.request = request
        self.id = request.digest()
        self.state = JobState.QUEUED
        self.result: dict[str, Any] | None = None
        self.error: str | None = None
        self.submitted_at = time.time()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.events = EventBuffer()
        self.stream = EventStream([self.events], source=self.id[:12])
        self._done = threading.Event()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job reaches a terminal state.

        Returns True when terminal, False on timeout.
        """
        return self._done.wait(timeout)

    def descriptor(self) -> dict[str, Any]:
        """Return the job's JSON-ready status descriptor."""
        out: dict[str, Any] = {
            "id": self.id,
            "kind": self.request.kind,
            "state": self.state.value,
            "params": dict(self.request.params),
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "n_events": len(self.events),
        }
        if self.error is not None:
            out["error"] = self.error
        return out

    def _finish(
        self,
        state: JobState,
        result: dict[str, Any] | None = None,
        error: str | None = None,
    ) -> None:
        """Transition to a terminal state and wake every waiter."""
        self.state = state
        self.result = result
        self.error = error
        self.finished_at = time.time()
        try:
            self.stream.finish()
        except Exception:  # noqa: BLE001 - closing is best-effort
            pass
        self.events.close()
        self._done.set()


class JobQueue:
    """Dedup-aware FIFO queue executed by daemon worker threads.

    Parameters
    ----------
    runner:
        Callable executing one job and returning its JSON-ready result
        dict.  Exceptions it raises mark the job FAILED (the worker
        thread survives).
    workers:
        Worker-thread count.  The default of 1 serializes simulations;
        the HTTP layer stays concurrent regardless.  Worker threads
        count into the process registry, and each report counts its
        own run into a scope of its own.
    max_pending:
        Backpressure limit on *queued* (not running) jobs; new requests
        past it raise :class:`QueueFullError`.
    """

    def __init__(
        self,
        runner: Callable[[Job], dict[str, Any]],
        *,
        workers: int = 1,
        max_pending: int = 64,
    ) -> None:
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers!r}")
        if max_pending < 1:
            raise ServiceError(
                f"max_pending must be >= 1, got {max_pending!r}"
            )
        self._runner = runner
        self.max_pending = max_pending
        self._jobs: dict[str, Job] = {}
        # The terminal jobs in ``_jobs``, oldest-finished first.
        self._finished: dict[str, Job] = {}
        self._pending: deque[Job] = deque()
        self._cond = threading.Condition()
        self._closed = False
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"repro-job-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- submission ----------------------------------------------------

    def submit(self, request: JobRequest) -> tuple[Job, str]:
        """Enqueue ``request``; return ``(job, disposition)``.

        Dispositions: ``"new"`` (fresh job queued), ``"coalesced"``
        (identical job already queued/running), ``"completed"``
        (identical job already DONE -- stored result reused),
        ``"retried"`` (identical job FAILED/CANCELLED -- replaced).

        Raises
        ------
        QueueFullError
            When a new job would exceed ``max_pending`` queued jobs.
        """
        registry = get_registry()
        with self._cond:
            if self._closed:
                raise ServiceError("job queue is closed")
            digest = request.digest()
            existing = self._jobs.get(digest)
            if existing is not None:
                if existing.state in (JobState.QUEUED, JobState.RUNNING):
                    registry.counter(
                        "repro.service.dedup_hits",
                        help="submissions folded onto an existing job",
                    ).inc(mode="coalesced")
                    return existing, "coalesced"
                if existing.state is JobState.DONE:
                    registry.counter(
                        "repro.service.dedup_hits",
                        help="submissions folded onto an existing job",
                    ).inc(mode="completed")
                    return existing, "completed"
                disposition = "retried"
                del self._finished[digest]
            else:
                disposition = "new"
            if len(self._pending) >= self.max_pending:
                registry.counter(
                    "repro.service.rejected",
                    help="submissions refused by queue backpressure",
                ).inc(kind=request.kind)
                raise QueueFullError(
                    f"job queue full ({self.max_pending} pending); retry later"
                )
            job = Job(request)
            self._jobs[digest] = job
            self._pending.append(job)
            registry.counter(
                "repro.service.submitted",
                help="jobs accepted into the queue",
            ).inc(kind=request.kind)
            self._set_depth_locked()
            self._cond.notify()
            return job, disposition

    def cancel(self, job_id: str) -> bool:
        """Cancel a QUEUED job; return whether it was cancelled.

        Running jobs are not interruptible (the simulation owns the
        worker thread until it returns), so cancelling one returns
        False and leaves it to finish.
        """
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None or job.state is not JobState.QUEUED:
                return False
            try:
                self._pending.remove(job)
            except ValueError:
                # Already claimed by a worker between states.
                return False
            self._set_depth_locked()
        self._finish(job, JobState.CANCELLED, error="cancelled before execution")
        get_registry().counter(
            "repro.service.cancelled", help="jobs cancelled while queued"
        ).inc(kind=job.request.kind)
        return True

    # -- inspection ----------------------------------------------------

    def get(self, job_id: str) -> Job | None:
        """Return the job addressed by ``job_id``, if known."""
        with self._cond:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        """Return every known job, oldest submission first."""
        with self._cond:
            return sorted(self._jobs.values(), key=lambda j: j.submitted_at)

    def depth(self) -> int:
        """Return the number of queued (not yet running) jobs."""
        with self._cond:
            return len(self._pending)

    # -- lifecycle -----------------------------------------------------

    def close(self, timeout: float | None = 5.0) -> None:
        """Stop accepting work and join the worker threads.

        Queued jobs that never ran are marked CANCELLED so waiters
        unblock; the running job (if any) finishes normally.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            abandoned = list(self._pending)
            self._pending.clear()
            self._set_depth_locked()
            self._cond.notify_all()
        for job in abandoned:
            self._finish(job, JobState.CANCELLED, error="queue shut down")
        for thread in self._threads:
            thread.join(timeout=timeout)

    def _finish(
        self,
        job: Job,
        state: JobState,
        result: dict[str, Any] | None = None,
        error: str | None = None,
    ) -> None:
        """Keep ``job`` as the newest terminal job, then finish it.

        Past :data:`MAX_FINISHED_JOBS` the oldest-finished jobs are
        evicted, before the job's waiters wake.
        """
        with self._cond:
            self._finished[job.id] = job
            while len(self._finished) > MAX_FINISHED_JOBS:
                oldest = next(iter(self._finished))
                del self._finished[oldest]
                del self._jobs[oldest]
        job._finish(state, result, error)

    def _set_depth_locked(self) -> None:
        get_registry().gauge(
            "repro.service.queue_depth",
            help="jobs queued and not yet running",
        ).set(float(len(self._pending)))

    def _worker(self) -> None:
        """Worker loop: drain jobs until the queue closes.

        The runner call is outside the lock (simulations are long);
        exceptions mark the job FAILED and the loop continues -- a
        poisoned request must never take the queue down with it.
        """
        registry = get_registry()
        while True:
            with self._cond:
                while not self._pending and not self._closed:
                    self._cond.wait()
                if not self._pending:
                    return
                job = self._pending.popleft()
                job.state = JobState.RUNNING
                job.started_at = time.time()
                self._set_depth_locked()
            registry.counter(
                "repro.service.executed",
                help="jobs that actually ran a simulation",
            ).inc(kind=job.request.kind)
            job.stream.emit("job_start", job.request.kind, job=job.id)
            started = time.perf_counter()
            try:
                result = self._runner(job)
            except Exception as exc:  # noqa: BLE001 - keep the worker alive
                registry.counter(
                    "repro.service.failed",
                    help="jobs whose runner raised",
                ).inc(kind=job.request.kind)
                try:
                    job.stream.emit(
                        "job_finish",
                        job.request.kind,
                        job=job.id,
                        state=JobState.FAILED.value,
                        error=str(exc),
                    )
                except Exception:  # noqa: BLE001
                    pass
                self._finish(
                    job, JobState.FAILED, error=f"{type(exc).__name__}: {exc}"
                )
            else:
                job.stream.emit(
                    "job_finish",
                    job.request.kind,
                    job=job.id,
                    state=JobState.DONE.value,
                )
                self._finish(job, JobState.DONE, result=result)
            registry.histogram(
                "repro.service.job_seconds",
                buckets=_JOB_BUCKETS,
                help="wall-clock runner duration per executed job",
            ).observe(time.perf_counter() - started, kind=job.request.kind)
