"""Hierarchical simulation spans with wall-time and throughput accounting.

A span covers one level of the run hierarchy the telemetry layer
traces: ``run -> device -> stage -> clock phase``.  Timed spans are
opened and closed around real work (the bench's stimulus generation,
the device loop, the FFT analysis) and measure wall time with
:func:`time.perf_counter`; *structural* spans
(:meth:`~repro.telemetry.session.TelemetrySession.record`) carry
sample counts and attributes for levels whose work is interleaved
inside a per-sample loop and therefore cannot be timed separately --
an SI modulator advances both integrator stages within one loop
iteration, so the stage and clock-phase spans under its device span are
structural.

Sample counts turn wall time into the throughput figure the ROADMAP's
perf work needs: ``samples_per_second`` is the measured simulation rate
of the subtree.  :meth:`Span.as_record` is the one encoding of a span,
shared by the live event stream and ``repro profile --json``.
"""

from __future__ import annotations

import time
from typing import Iterator

from repro.errors import TelemetryError

__all__ = ["Span", "jsonable", "render_span_tree"]


def jsonable(value: object) -> object:
    """Return ``value`` with everything JSON cannot encode as ``str``.

    Scalars pass through, mappings and sequences are rendered item by
    item, anything else becomes ``str(value)``.  Span attributes, probe
    metadata and event fields are free-form; every writer passes them
    through this one coercion.
    """
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    return str(value)


class Span:
    """One node of the span tree.

    Parameters
    ----------
    name:
        Span label; by convention prefixed with its hierarchy level
        (``run:``, ``device:``, ``stage:``, ``phase:``).
    samples:
        Number of simulated samples the span covers, or None when the
        span does not process samples.
    attrs:
        Free-form attributes (clock phase, sample rate, device type...)
        written verbatim into the span's record.

    Attributes
    ----------
    id, parent:
        The span's id and its parent span's id (None for a root), both
        assigned by the :class:`~repro.telemetry.session.TelemetrySession`
        the span is attached to; None until then.
    pid:
        The process that did the span's work: the recording process,
        or the worker that ran a sweep chunk.
    """

    __slots__ = (
        "name",
        "samples",
        "attrs",
        "children",
        "duration_s",
        "id",
        "parent",
        "pid",
        "_started",
    )

    def __init__(
        self,
        name: str,
        samples: int | None = None,
        **attrs: object,
    ) -> None:
        self.name = name
        self.samples = samples
        self.attrs: dict[str, object] = attrs
        self.children: list[Span] = []
        self.duration_s: float | None = None
        self.id: int | None = None
        self.parent: int | None = None
        self.pid: int | None = None
        self._started: float | None = None

    def __repr__(self) -> str:
        return (
            f"Span(name={self.name!r}, samples={self.samples!r}, "
            f"duration_s={self.duration_s!r}, children={len(self.children)})"
        )

    def start(self) -> "Span":
        """Start the wall-time clock for this span.

        Raises
        ------
        TelemetryError
            If the span was already started.
        """
        if self._started is not None:
            raise TelemetryError(f"span {self.name!r} was already started")
        self._started = time.perf_counter()
        return self

    def finish(self) -> "Span":
        """Stop the wall-time clock and fix the span's duration.

        Raises
        ------
        TelemetryError
            If the span was never started or already finished.
        """
        if self._started is None:
            raise TelemetryError(f"span {self.name!r} was never started")
        if self.duration_s is not None:
            raise TelemetryError(f"span {self.name!r} was already finished")
        self.duration_s = time.perf_counter() - self._started
        return self

    def as_record(self) -> dict[str, object]:
        """Return the span's one JSON record.

        The same record is written into the span's ``span_start`` and
        ``span_finish`` events and into ``repro profile --json``, so
        ``id``/``parent`` rebuild the tree wherever it was written.
        """
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "pid": self.pid,
            "duration_s": self.duration_s,
            "samples": self.samples,
            "attrs": jsonable(self.attrs),
        }

    @property
    def samples_per_second(self) -> float | None:
        """Return the measured simulation throughput, when computable."""
        if self.samples is None or not self.duration_s:
            return None
        return self.samples / self.duration_s

    def walk(self, depth: int = 0) -> Iterator[tuple[int, "Span"]]:
        """Yield ``(depth, span)`` pairs depth-first, starting with self."""
        yield depth, self
        for child in self.children:
            yield from child.walk(depth + 1)


def _format_attrs(attrs: dict[str, object]) -> str:
    """Render span attributes as a compact ``key=value`` list."""
    return " ".join(f"{key}={value}" for key, value in attrs.items())


def render_span_tree(roots: list[Span]) -> str:
    """Render a span forest as an indented table.

    Wall times are in milliseconds; throughput in kilosamples per
    second.  Structural (untimed) spans show ``-`` in both columns.
    """
    from repro.reporting.tables import render_table

    rows = []
    for root in roots:
        for depth, span in root.walk():
            rate = span.samples_per_second
            rows.append(
                (
                    "  " * depth + span.name,
                    f"{span.duration_s * 1e3:.1f}" if span.duration_s is not None else "-",
                    str(span.samples) if span.samples is not None else "-",
                    f"{rate / 1e3:.1f}" if rate is not None else "-",
                    _format_attrs(span.attrs),
                )
            )
    if not rows:
        rows = [("-", "-", "-", "-", "no spans recorded")]
    return render_table(
        "span tree",
        ("span", "wall [ms]", "samples", "ksamples/s", "attributes"),
        rows,
    )
