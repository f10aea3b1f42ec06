"""Parallel shard executor for lane-parallel sweeps.

:class:`SweepExecutor` splits a list of work items (sweep lanes,
Monte-Carlo trials) into contiguous chunks and runs one worker call per
chunk, either inline or on a ``ProcessPoolExecutor``.  Three properties
matter more than raw speed:

* **Determinism** -- chunk boundaries depend only on the item count and
  the configured job/chunk settings, never on scheduling; each chunk
  receives a :class:`ShardContext` carrying its lane offset, which is
  all a sweep worker needs to fast-forward its device's own random
  streams to the right lane.  Results are reassembled in submission
  order.
* **Honesty about cores** -- the effective process count is clamped to
  ``min(jobs, os.cpu_count(), n_chunks)``.  On a single-core host a
  ``--jobs 4`` request runs inline (one fully vectorized pass) instead
  of paying fork-and-pickle overhead for no parallelism.
* **Bounded failure** -- a per-chunk timeout turns a hung worker into a
  :class:`SweepTimeoutError` instead of a silent stall, optionally
  after ``retries`` resubmissions of the timed-out chunk.

Every chunk -- inline or forked -- runs in a fresh instrument scope
(:func:`~repro.observability.instruments.use_registry`) and returns its
result with what only the chunk knows: its pid, start wall time,
duration and registry snapshot.  ``map`` merges each snapshot into the
caller's registry, so cache counters survive the process boundary, and
keeps one :class:`ShardRun` per chunk on :attr:`SweepExecutor.shards`
for the caller to turn into spans and live events.  Timeouts and
retries also surface as :class:`~repro.telemetry.events.TelemetryEvent`
findings (``EXEC001`` / ``EXEC002``) on :attr:`SweepExecutor.events`,
kept there even when ``map`` raises.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any, TypeVar

from repro.errors import ConfigurationError
from repro.observability.instruments import (
    Counter,
    InstrumentRegistry,
    get_registry,
    use_registry,
)
from repro.telemetry.events import Severity, TelemetryEvent

__all__ = ["ShardContext", "ShardRun", "SweepExecutor", "SweepTimeoutError"]

_ItemT = TypeVar("_ItemT")
_ResultT = TypeVar("_ResultT")

#: What a chunk call returns: its result, pid, start wall time,
#: duration and registry snapshot.
_Outcome = tuple[Any, int, float, float, dict[str, object]]

#: Queue-wait buckets (seconds): submission-to-start latency is
#: microseconds inline and up to pool spin-up time under load.
_WAIT_BUCKETS: tuple[float, ...] = (
    0.0001,
    0.0005,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
)

#: Shard wall-time buckets (seconds).
_SHARD_BUCKETS: tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    30.0,
    120.0,
)


class SweepTimeoutError(RuntimeError):
    """A sharded worker exceeded the executor's per-chunk timeout."""


@dataclass(frozen=True)
class ShardContext:
    """Deterministic execution context handed to each worker chunk.

    Attributes
    ----------
    shard_index:
        Position of this chunk in the submission order.
    n_shards:
        Total number of chunks for this ``map`` call.
    lane_offset:
        Index of the chunk's first item within the full item list;
        lane-sliced noise streams fast-forward by this many lanes.
    n_lanes:
        Number of items in this chunk.
    """

    shard_index: int
    n_shards: int
    lane_offset: int
    n_lanes: int


@dataclass(frozen=True)
class ShardRun:
    """How one chunk ran, as the parent records it.

    Attributes
    ----------
    context:
        The chunk's :class:`ShardContext`.
    pid:
        Process that ran the chunk (the parent's own pid when inline).
    started_unix:
        Wall-clock start of the worker call (``time.time()``: unlike
        ``perf_counter`` it is comparable across processes).
    duration_s:
        Worker-side wall time of the call.
    queue_wait_s:
        Submission-to-start latency.
    instruments:
        Snapshot of the chunk's own registry, already merged into the
        caller's.
    """

    context: ShardContext
    pid: int
    started_unix: float
    duration_s: float
    queue_wait_s: float
    instruments: dict[str, object]

    @property
    def counters(self) -> dict[str, float]:
        """Return the chunk's counter totals, keyed by registry name."""
        chunk = InstrumentRegistry()
        chunk.merge(self.instruments)
        return {
            instrument.name: instrument.total()
            for instrument in chunk.instruments()
            if isinstance(instrument, Counter)
        }


def _scoped_call(
    worker: Callable[[Sequence[Any], ShardContext], Any],
    payload: Sequence[Any],
    context: ShardContext,
    submitted_unix: float,
) -> _Outcome:
    """Run one chunk in a fresh instrument scope.

    This is the call that crosses the process boundary, and it runs
    inline chunks too, so the parent sees the same shape either way.
    Because the registry is fresh, counts a forked worker inherits
    from its parent are never merged twice.
    """
    registry = InstrumentRegistry()
    with use_registry(registry):
        started_unix = time.time()
        started = time.perf_counter()
        result = worker(payload, context)
        duration_s = time.perf_counter() - started
        registry.counter(
            "repro.executor.shards", help="worker chunk calls completed"
        ).inc()
        registry.histogram(
            "repro.executor.queue_wait_seconds",
            buckets=_WAIT_BUCKETS,
            help="submission-to-start latency per chunk",
        ).observe(max(0.0, started_unix - submitted_unix))
        registry.histogram(
            "repro.executor.shard_seconds",
            buckets=_SHARD_BUCKETS,
            help="worker-side wall time per chunk",
        ).observe(duration_s)
    return result, os.getpid(), started_unix, duration_s, registry.snapshot()


class SweepExecutor:
    """Shard work items across processes with deterministic chunking.

    Parameters
    ----------
    jobs:
        Requested worker-process count.  ``1`` always runs inline; the
        effective count is additionally clamped to the host's CPU count
        and the chunk count.
    chunk_size:
        Items per worker call.  ``None`` derives
        ``ceil(n_items / effective_jobs)`` so one chunk lands on each
        worker.
    timeout_s:
        Per-chunk wall-clock timeout in seconds (``None`` disables).
    retries:
        How many times a timed-out chunk is resubmitted before the
        call fails with :class:`SweepTimeoutError`.  Each retry is
        counted (``repro.executor.retries``) and recorded as an
        ``EXEC002`` event; the final timeout as ``EXEC001``.

    Attributes
    ----------
    events:
        :class:`~repro.telemetry.events.TelemetryEvent` records from
        the most recent ``map`` call (timeouts and retries); reset at
        the start of each call.
    shards:
        One :class:`ShardRun` per chunk of the most recent ``map``
        call, in chunk order; reset at the start of each call.
    """

    def __init__(
        self,
        jobs: int = 1,
        *,
        chunk_size: int | None = None,
        timeout_s: float | None = None,
        retries: int = 0,
    ) -> None:
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs!r}")
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {chunk_size!r}"
            )
        if timeout_s is not None and timeout_s <= 0.0:
            raise ConfigurationError(
                f"timeout_s must be positive, got {timeout_s!r}"
            )
        if retries < 0:
            raise ConfigurationError(f"retries must be >= 0, got {retries!r}")
        self.jobs = jobs
        self.chunk_size = chunk_size
        self.timeout_s = timeout_s
        self.retries = retries
        self.events: list[TelemetryEvent] = []
        self.shards: list[ShardRun] = []

    def plan(self, n_items: int) -> list[tuple[int, int]]:
        """Return the ``(offset, length)`` chunk plan for ``n_items``.

        The plan depends only on ``n_items``, the executor
        configuration and the host's CPU count -- never on scheduling.
        The default chunk size divides the items over the *effective*
        process count, so a ``--jobs 4`` request on a single-core host
        yields one chunk (one fully vectorized pass) instead of four
        undersized ones; any layout produces bit-identical results, the
        chunking only sets the vectorization width per worker call.
        """
        if n_items <= 0:
            return []
        if self.chunk_size is not None:
            size = self.chunk_size
        else:
            workers = max(1, min(self.jobs, os.cpu_count() or 1))
            size = -(-n_items // workers)
        chunks: list[tuple[int, int]] = []
        offset = 0
        while offset < n_items:
            length = min(size, n_items - offset)
            chunks.append((offset, length))
            offset += length
        return chunks

    def effective_jobs(self, n_chunks: int) -> int:
        """Return the process count actually used for ``n_chunks``."""
        return max(1, min(self.jobs, os.cpu_count() or 1, n_chunks))

    def map(
        self,
        worker: Callable[[Sequence[_ItemT], ShardContext], _ResultT],
        items: Sequence[_ItemT],
    ) -> list[_ResultT]:
        """Run ``worker`` over chunked ``items``; return per-chunk results.

        ``worker`` must be picklable (a module-level function) when more
        than one process is used.  Results are returned in chunk order
        regardless of completion order.  Each chunk counts into a fresh
        registry whose snapshot is merged into :func:`get_registry` and
        kept, with the chunk's timing, on :attr:`shards`.
        """
        chunks = self.plan(len(items))
        self.events = []
        self.shards = []
        contexts = [
            ShardContext(
                shard_index=index,
                n_shards=len(chunks),
                lane_offset=offset,
                n_lanes=length,
            )
            for index, (offset, length) in enumerate(chunks)
        ]
        payloads = [
            items[offset : offset + length] for offset, length in chunks
        ]
        n_processes = self.effective_jobs(len(chunks))
        registry = get_registry()
        # A last-value gauge, not a counter: dashboards tailing /statsz
        # want "what parallelism is this host actually getting" -- the
        # clamped count, which can silently differ from the requested
        # ``jobs`` on small hosts or short item lists.
        registry.gauge(
            "repro.executor.effective_jobs",
            help="process count actually used by the latest map call",
        ).set(float(n_processes), requested=str(self.jobs))
        submitted = [0.0] * len(chunks)
        outcomes: list[_Outcome] = []
        if n_processes <= 1:
            for index, (payload, context) in enumerate(zip(payloads, contexts)):
                submitted[index] = time.time()
                outcomes.append(
                    _scoped_call(worker, payload, context, submitted[index])
                )
        else:
            outcomes = self._pooled(
                worker, payloads, contexts, submitted, n_processes
            )
        results: list[_ResultT] = []
        for context, sent, outcome in zip(contexts, submitted, outcomes):
            result, pid, started_unix, duration_s, snapshot = outcome
            registry.merge(snapshot)
            self.shards.append(
                ShardRun(
                    context=context,
                    pid=pid,
                    started_unix=started_unix,
                    duration_s=duration_s,
                    queue_wait_s=max(0.0, started_unix - sent),
                    instruments=snapshot,
                )
            )
            results.append(result)
        return results

    def _pooled(
        self,
        worker: Callable[[Sequence[Any], ShardContext], Any],
        payloads: list[Sequence[Any]],
        contexts: list[ShardContext],
        submitted: list[float],
        n_processes: int,
    ) -> list[_Outcome]:
        """Run the chunks on a process pool, resubmitting timed-out ones."""
        # Imported here: the pool pulls in multiprocessing, pickle,
        # socket and logging, which an inline run never needs.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures import TimeoutError as FuturesTimeoutError

        outcomes: list[_Outcome] = []
        with ProcessPoolExecutor(max_workers=n_processes) as pool:

            def submit(index: int) -> Any:
                submitted[index] = time.time()
                return pool.submit(
                    _scoped_call,
                    worker,
                    payloads[index],
                    contexts[index],
                    submitted[index],
                )

            futures = [submit(index) for index in range(len(contexts))]
            for index, future in enumerate(futures):
                attempts_left = self.retries
                while True:
                    try:
                        outcomes.append(future.result(timeout=self.timeout_s))
                        break
                    except FuturesTimeoutError as exc:
                        future.cancel()
                        if attempts_left > 0:
                            attempts_left -= 1
                            self._note_retry(index, len(futures))
                            future = submit(index)
                            continue
                        for pending in futures:
                            pending.cancel()
                        self._note_timeout(index, len(futures))
                        raise SweepTimeoutError(
                            f"shard {index}/{len(futures)} exceeded "
                            f"{self.timeout_s!r} s"
                        ) from exc
        return outcomes

    def _note_timeout(self, index: int, n_shards: int) -> None:
        """Account a terminal shard timeout (counter + EXEC001 event)."""
        get_registry().counter(
            "repro.executor.timeouts",
            help="chunks that exceeded the per-chunk timeout terminally",
        ).inc(shard=str(index))
        self.events.append(
            TelemetryEvent(
                rule="EXEC001",
                severity=Severity.ERROR,
                source=f"shard:{index}",
                message=(
                    f"shard {index}/{n_shards} exceeded the per-chunk "
                    f"timeout of {self.timeout_s!r} s"
                ),
            )
        )

    def _note_retry(self, index: int, n_shards: int) -> None:
        """Account a timed-out chunk's resubmission (counter + EXEC002)."""
        get_registry().counter(
            "repro.executor.retries",
            help="timed-out chunks resubmitted to the pool",
        ).inc(shard=str(index))
        self.events.append(
            TelemetryEvent(
                rule="EXEC002",
                severity=Severity.WARNING,
                source=f"shard:{index}",
                message=(
                    f"shard {index}/{n_shards} timed out after "
                    f"{self.timeout_s!r} s; resubmitting"
                ),
            )
        )
