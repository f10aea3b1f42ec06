"""Live progress streaming: span and instrument events as JSONL.

Long sweeps used to be silent until they finished.  This module tails
a run's progress as it happens: every span open/close (and each
sweep chunk's counter totals) becomes one small JSON line on a
file, file descriptor or stream, cheap enough to leave on in
production -- events fire per *span* and per *shard*, never per
sample, so a 64K-point report emits a few dozen lines while
simulating tens of thousands of samples per second.

:class:`EventStream` assigns a strictly increasing ``seq`` to every
event, clamps wall-clock timestamps to be non-decreasing (worker
clocks can disagree by microseconds), and writes one JSON object per
line, flushing as it goes so ``tail -f`` and the service's
``/events`` tail see events live.  Sharded workers never write to it:
the parent process emits each chunk's events from the timing the
chunk returned (:class:`~repro.runtime.executor.ShardRun`), sorted by
the chunks' wall clocks, so a ``--jobs N`` sweep reads as one
timeline.

A :class:`~repro.telemetry.session.TelemetrySession` constructed with
``stream=`` emits ``span_start``/``span_finish`` events for every span
opened on it; ``repro report --events PATH`` and
``repro sweep --follow`` wire this up from the CLI.  Timestamps are
``time.time()`` based -- ``perf_counter`` is not comparable across
processes, while same-host wall clocks are.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path
from typing import IO, Protocol, Sequence

from repro.errors import ObservabilityError
from repro.outputs import output_path
from repro.telemetry.spans import jsonable

__all__ = [
    "EVENT_SCHEMA",
    "EventBuffer",
    "EventStream",
    "TextSink",
    "open_event_stream",
]

#: Schema identifier stamped on the stream's header event.
EVENT_SCHEMA = "repro.observability/event-stream/v1"


class TextSink(Protocol):
    """A writable text handle (open file, stderr, :class:`EventBuffer`)."""

    def write(self, text: str) -> int:
        """Write text; return the number of characters written."""
        ...

    def flush(self) -> None:
        """Push buffered text through."""
        ...


class EventBuffer:
    """A thread-safe, tailable in-memory line buffer.

    This is the sink the simulation service hangs each job's
    :class:`EventStream` on: the stream writes JSONL lines into the
    buffer from the worker thread, while any number of HTTP readers
    tail it concurrently -- :meth:`wait` blocks until new lines arrive
    or the buffer closes, so ``GET /jobs/<id>/events?follow=1``
    streams a live run without polling.

    The buffer implements the ``write``/``flush`` file-handle protocol
    :class:`EventStream` expects, collecting *complete* lines only (a
    partial write is held back until its newline lands), so readers
    never observe a torn JSON object.
    """

    def __init__(self) -> None:
        self._lines: list[str] = []
        self._partial = ""
        self._closed = False
        self._cond = threading.Condition()

    # -- handle protocol (writer side) ---------------------------------

    def write(self, text: str) -> int:
        """Append text; complete lines become visible to readers.

        Raises
        ------
        ObservabilityError
            If the buffer was already closed.
        """
        with self._cond:
            if self._closed:
                raise ObservabilityError("EventBuffer is closed")
            self._partial += text
            *complete, self._partial = self._partial.split("\n")
            if complete:
                self._lines.extend(complete)
                self._cond.notify_all()
        return len(text)

    def flush(self) -> None:
        """No-op: lines are visible as soon as their newline lands."""

    def close(self) -> None:
        """Mark the buffer complete; wakes every blocked reader."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    # -- reader side ---------------------------------------------------

    @property
    def closed(self) -> bool:
        """Return whether the writer finished the buffer."""
        return self._closed

    def __len__(self) -> int:
        with self._cond:
            return len(self._lines)

    def lines(self, start: int = 0) -> list[str]:
        """Return a snapshot of the buffered lines from ``start``."""
        with self._cond:
            return self._lines[start:]

    def wait(self, start: int = 0, timeout: float | None = None) -> list[str]:
        """Return lines from ``start``, blocking while none exist.

        Returns immediately when lines past ``start`` are already
        buffered or the buffer is closed; otherwise blocks up to
        ``timeout`` seconds (forever when None) for the next write.
        An empty list therefore means "no new lines yet" -- check
        :attr:`closed` to distinguish a quiet stream from a finished
        one.
        """
        with self._cond:
            if len(self._lines) <= start and not self._closed:
                self._cond.wait(timeout=timeout)
            return self._lines[start:]


class EventStream:
    """Append JSONL events to one or more open text handles.

    Parameters
    ----------
    handles:
        Open text handles to write to (a file, ``sys.stderr``, a
        pipe).  The stream never closes handles it was handed; use
        :func:`open_event_stream` for path management.
    source:
        Label stamped on the header event (the run's design name).

    Guarantees:

    * ``seq`` is strictly increasing across every event written;
    * ``t`` is non-decreasing: an event carrying an earlier wall-clock
      time than its predecessor (worker clock skew) is clamped up, so
      the tailed file is always a monotonically-ordered timeline;
    * each event is one line, flushed immediately -- a crash loses at
      most the event being written.
    """

    def __init__(
        self, handles: Sequence[TextSink], source: str = "run"
    ) -> None:
        if not handles:
            raise ObservabilityError("EventStream needs at least one handle")
        self._handles = tuple(handles)
        self._seq = 0
        self._last_t = 0.0
        self.source = source
        self.emit("stream_start", source, schema=EVENT_SCHEMA)

    @property
    def seq(self) -> int:
        """Return the number of events emitted so far."""
        return self._seq

    def emit(
        self, event: str, name: str, t: float | None = None, **fields: object
    ) -> dict[str, object]:
        """Write one event line to every handle; return the record.

        ``t`` defaults to now; an earlier ``t`` than the previous
        event's is clamped up to it.
        """
        if not event:
            raise ObservabilityError("event type must be non-empty")
        stamp = max(time.time() if t is None else float(t), self._last_t)
        self._last_t = stamp
        record: dict[str, object] = {"t": stamp, "event": event, "name": name}
        for key, value in fields.items():
            record[key] = jsonable(value)
        record["seq"] = self._seq
        self._seq += 1
        line = json.dumps(record, sort_keys=False)
        for handle in self._handles:
            handle.write(line + "\n")
            handle.flush()
        return record

    def finish(self) -> dict[str, object]:
        """Emit the closing ``stream_finish`` event."""
        return self.emit("stream_finish", self.source, n_events=self._seq)


class _OwnedEventStream(EventStream):
    """An :class:`EventStream` that closes the files it opened."""

    def __init__(
        self,
        handles: Sequence[TextSink],
        owned: Sequence[IO[str]],
        source: str,
    ) -> None:
        self._owned = tuple(owned)
        super().__init__(handles, source=source)

    def close(self) -> None:
        """Emit ``stream_finish`` and close owned files."""
        self.finish()
        for handle in self._owned:
            handle.close()

    def __enter__(self) -> "_OwnedEventStream":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def open_event_stream(
    path: str | Path | None = None,
    follow: bool = False,
    source: str = "run",
) -> _OwnedEventStream | None:
    """Open the event stream a CLI invocation asked for, if any.

    Parameters
    ----------
    path:
        ``--events PATH`` target; ``"-"`` means stdout.  The file is
        truncated (a stream is one run's timeline, not a ledger).
    follow:
        ``--follow``: also mirror events to stderr so a terminal user
        watches progress while ``--json``/table output stays clean on
        stdout.
    source:
        Label for the header event.

    Returns None when neither target was requested, so callers can use
    ``if stream is not None`` as the single enable check.
    """
    handles: list[IO[str]] = []
    owned: list[IO[str]] = []
    if path is not None:
        if str(path) == "-":
            handles.append(sys.stdout)
        else:
            handle = output_path(path).open("w")
            handles.append(handle)
            owned.append(handle)
    if follow:
        handles.append(sys.stderr)
    if not handles:
        return None
    return _OwnedEventStream(handles, owned, source=source)
