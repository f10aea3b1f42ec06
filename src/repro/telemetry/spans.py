"""Hierarchical simulation spans with wall-time and throughput accounting.

A span covers one level of the run hierarchy the telemetry layer
traces: ``run -> device -> stage -> clock phase``.  Timed spans are
opened and closed around real work (the bench's stimulus generation,
the device loop, the FFT analysis) and measure wall time with
:func:`time.perf_counter`; *structural* spans (:meth:`Span.record`)
carry sample counts and attributes for levels whose work is interleaved
inside a per-sample loop and therefore cannot be timed separately --
an SI modulator advances both integrator stages within one loop
iteration, so the stage and clock-phase spans under its device span are
structural.

Sample counts turn wall time into the throughput figure the ROADMAP's
perf work needs: ``samples_per_second`` is the measured simulation rate
of the subtree.
"""

from __future__ import annotations

import time
from typing import Iterator

from repro.errors import TelemetryError

__all__ = ["Span", "jsonable", "render_span_tree"]


def jsonable(value: object) -> object:
    """Return ``value`` if JSON encodes it as a scalar, else ``str(value)``.

    Span attributes, probe metadata and live-event fields are free-form;
    every writer passes them through this one coercion.
    """
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
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
        exported verbatim to the JSONL trace.
    """

    __slots__ = ("name", "samples", "attrs", "children", "duration_s", "_started")

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

    @property
    def running(self) -> bool:
        """Return True while the span is started but not finished."""
        return self._started is not None and self.duration_s is None

    def add_samples(self, n: int) -> None:
        """Add ``n`` processed samples to the span's accounting."""
        self.samples = n if self.samples is None else self.samples + n

    def record(
        self,
        name: str,
        samples: int | None = None,
        duration_s: float | None = None,
        **attrs: object,
    ) -> "Span":
        """Attach a closed structural child span and return it.

        Structural spans represent hierarchy levels whose work is
        interleaved with their siblings' (the stages of a feedback
        loop, the clock phases of a cell) and therefore carry sample
        counts and attributes but usually no wall time of their own.
        """
        child = Span(name, samples=samples, **attrs)
        child.duration_s = duration_s
        self.children.append(child)
        return child

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
