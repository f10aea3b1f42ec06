"""Parallel shard executor for lane-parallel sweeps.

:class:`SweepExecutor` splits a list of work items (sweep lanes,
Monte-Carlo trials) into contiguous chunks and runs one worker call per
chunk, either inline or on a ``ProcessPoolExecutor``.  Three properties
matter more than raw speed:

* **Determinism** -- chunk boundaries depend only on the item count and
  the configured job/chunk settings, never on scheduling; each chunk
  receives a :class:`ShardContext` carrying its lane offset and a
  ``SeedSequence`` spawned from ``(seed, call_index, chunk_index)``, so
  any randomness a worker draws is a pure function of the executor
  configuration.  Results are reassembled in submission order.
* **Honesty about cores** -- the effective process count is clamped to
  ``min(jobs, os.cpu_count(), n_chunks)``.  On a single-core host a
  ``--jobs 4`` request runs inline (one fully vectorized pass) instead
  of paying fork-and-pickle overhead for no parallelism.
* **Bounded failure** -- a per-chunk timeout turns a hung worker into a
  :class:`SweepTimeoutError` instead of a silent stall, optionally
  after ``retries`` resubmissions of the timed-out chunk.

:meth:`SweepExecutor.map_instrumented` additionally runs every chunk --
inline or forked -- under a fresh instrument registry inside a
``shard:<index>`` span, and ships the finished span subtree plus the
registry snapshot back as a :class:`~repro.observability.spanio.WorkerTelemetry`
payload.  The caller merges the snapshots and grafts the spans, so
cache counters survive the process boundary and ``render_span_tree``
shows real worker-side wall time, queue wait and chunk sizes.  Timeouts
and retries also surface as :class:`~repro.telemetry.events.TelemetryEvent`
records (``EXEC001`` / ``EXEC002``) on :attr:`SweepExecutor.events`.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any, TypeVar

import numpy as np

from repro.errors import ConfigurationError
from repro.observability.instruments import (
    Counter,
    InstrumentRegistry,
    get_registry,
    use_registry,
)
from repro.observability.live import EventRecorder
from repro.observability.spanio import WorkerTelemetry, span_to_dict
from repro.telemetry.events import Severity, TelemetryEvent
from repro.telemetry.spans import Span

__all__ = ["ShardContext", "SweepExecutor", "SweepTimeoutError"]

_ItemT = TypeVar("_ItemT")
_ResultT = TypeVar("_ResultT")

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
    seed_entropy:
        Entropy tuple for ``np.random.SeedSequence``; spawned from the
        executor seed, the ``map`` call index and the shard index, so a
        worker can build a private, reproducible ``Generator``.
    """

    shard_index: int
    n_shards: int
    lane_offset: int
    n_lanes: int
    seed_entropy: tuple[int, ...]

    def seed_sequence(self) -> np.random.SeedSequence:
        """Return the shard's private ``SeedSequence``."""
        return np.random.SeedSequence(self.seed_entropy)


def _instrumented_call(
    worker: Callable[[Sequence[Any], ShardContext], Any],
    payload: Sequence[Any],
    context: ShardContext,
    submitted_unix: float,
) -> tuple[Any, WorkerTelemetry]:
    """Run one chunk under a fresh registry inside a ``shard:`` span.

    This is the wrapper that actually crosses the process boundary for
    instrumented maps.  It runs inline chunks too, so the telemetry a
    caller receives has identical shape whether or not processes were
    forked -- and because the registry is *fresh*, counts inherited
    through ``fork`` are never double-merged into the parent.

    Queue wait is ``time.time()`` based: ``perf_counter`` is not
    comparable across processes, while same-host wall clocks are.
    """
    registry = InstrumentRegistry()
    recorder = EventRecorder()
    with use_registry(registry):
        queue_wait_s = max(0.0, time.time() - submitted_unix)
        span = Span(
            f"shard:{context.shard_index}",
            pid=os.getpid(),
            lane_offset=context.lane_offset,
            n_lanes=context.n_lanes,
            queue_wait_ms=round(queue_wait_s * 1e3, 3),
        )
        recorder.emit(
            "span_start",
            span.name,
            pid=os.getpid(),
            lane_offset=context.lane_offset,
            n_lanes=context.n_lanes,
        )
        span.start()
        try:
            result = worker(payload, context)
        finally:
            span.finish()
            recorder.emit(
                "span_finish",
                span.name,
                pid=os.getpid(),
                duration_s=span.duration_s,
            )
        registry.counter(
            "repro.executor.shards", help="worker chunk calls completed"
        ).inc()
        registry.histogram(
            "repro.executor.queue_wait_seconds",
            buckets=_WAIT_BUCKETS,
            help="submission-to-start latency per chunk",
        ).observe(queue_wait_s)
        registry.histogram(
            "repro.executor.shard_seconds",
            buckets=_SHARD_BUCKETS,
            help="worker-side wall time per chunk",
        ).observe(span.duration_s or 0.0)
        snapshot = registry.snapshot()
        recorder.emit(
            "instruments",
            span.name,
            pid=os.getpid(),
            **_counter_deltas(registry),
        )
    telemetry = WorkerTelemetry(
        spans=(span_to_dict(span),),
        instruments=snapshot,
        events=tuple(recorder.events),
    )
    return result, telemetry


def _counter_deltas(registry: InstrumentRegistry) -> dict[str, float]:
    """Flatten a fresh worker registry's counters for the delta event.

    The registry was created for this one chunk, so every counter
    total *is* the chunk's delta; dots become underscores so the
    fields stay valid as flat JSON keys next to ``event``/``name``.
    """
    out: dict[str, float] = {}
    for instrument in registry.instruments():
        if isinstance(instrument, Counter):
            out[instrument.name.replace(".", "_")] = instrument.total()
    return out


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
    seed:
        Root seed for the per-shard ``SeedSequence`` spawning.

    Attributes
    ----------
    events:
        :class:`~repro.telemetry.events.TelemetryEvent` records from
        the most recent ``map`` / ``map_instrumented`` call (timeouts
        and retries); reset at the start of each call.
    """

    def __init__(
        self,
        jobs: int = 1,
        *,
        chunk_size: int | None = None,
        timeout_s: float | None = None,
        retries: int = 0,
        seed: int = 0,
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
        self.seed = seed
        self.events: list[TelemetryEvent] = []
        self._call_index = 0

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
        regardless of completion order.
        """
        results, _ = self._execute(worker, items, instrument=False)
        return results

    def map_instrumented(
        self,
        worker: Callable[[Sequence[_ItemT], ShardContext], _ResultT],
        items: Sequence[_ItemT],
    ) -> tuple[list[_ResultT], list[WorkerTelemetry]]:
        """Like :meth:`map`, returning per-chunk telemetry as well.

        Each chunk runs under a fresh instrument registry inside a
        ``shard:<index>`` span; the returned
        :class:`~repro.observability.spanio.WorkerTelemetry` payloads
        (in chunk order) carry the serialized span subtree and the
        registry snapshot for the caller to graft and merge.
        """
        return self._execute(worker, items, instrument=True)

    def _execute(
        self,
        worker: Callable[[Sequence[_ItemT], ShardContext], _ResultT],
        items: Sequence[_ItemT],
        *,
        instrument: bool,
    ) -> tuple[list[_ResultT], list[WorkerTelemetry]]:
        chunks = self.plan(len(items))
        call_index = self._call_index
        self._call_index += 1
        self.events = []
        contexts = [
            ShardContext(
                shard_index=index,
                n_shards=len(chunks),
                lane_offset=offset,
                n_lanes=length,
                seed_entropy=(self.seed, call_index, index),
            )
            for index, (offset, length) in enumerate(chunks)
        ]
        payloads = [
            items[offset : offset + length] for offset, length in chunks
        ]
        n_processes = self.effective_jobs(len(chunks))
        if instrument:
            # A last-value gauge, not a counter: dashboards tailing
            # /statsz want "what parallelism is this host actually
            # getting" -- the clamped count, which can silently differ
            # from the requested ``jobs`` on small hosts or short item
            # lists.  Plain map() stays instrument-free by contract.
            get_registry().gauge(
                "repro.executor.effective_jobs",
                help="process count actually used by the latest map call",
            ).set(float(n_processes), requested=str(self.jobs))
        results: list[_ResultT] = []
        telemetries: list[WorkerTelemetry] = []
        if n_processes <= 1:
            for payload, context in zip(payloads, contexts):
                if instrument:
                    result, telemetry = _instrumented_call(
                        worker, payload, context, time.time()
                    )
                    telemetries.append(telemetry)
                else:
                    result = worker(payload, context)
                results.append(result)
            return results, telemetries
        # Imported here: the pool pulls in multiprocessing, pickle,
        # socket and logging, which an inline run never needs.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures import TimeoutError as FuturesTimeoutError

        with ProcessPoolExecutor(max_workers=n_processes) as pool:
            futures: list[Any]
            if instrument:
                futures = [
                    pool.submit(
                        _instrumented_call, worker, payload, context, time.time()
                    )
                    for payload, context in zip(payloads, contexts)
                ]
            else:
                futures = [
                    pool.submit(worker, payload, context)
                    for payload, context in zip(payloads, contexts)
                ]
            for index, future in enumerate(futures):
                attempts_left = self.retries
                while True:
                    try:
                        outcome = future.result(timeout=self.timeout_s)
                        break
                    except FuturesTimeoutError as exc:
                        future.cancel()
                        if attempts_left > 0:
                            attempts_left -= 1
                            self._note_retry(index, len(futures))
                            if instrument:
                                future = pool.submit(
                                    _instrumented_call,
                                    worker,
                                    payloads[index],
                                    contexts[index],
                                    time.time(),
                                )
                            else:
                                future = pool.submit(
                                    worker, payloads[index], contexts[index]
                                )
                            continue
                        for pending in futures:
                            pending.cancel()
                        self._note_timeout(index, len(futures))
                        raise SweepTimeoutError(
                            f"shard {index}/{len(futures)} exceeded "
                            f"{self.timeout_s!r} s"
                        ) from exc
                if instrument:
                    result, telemetry = outcome
                    telemetries.append(telemetry)
                    results.append(result)
                else:
                    results.append(outcome)
            return results, telemetries

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
