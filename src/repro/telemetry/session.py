"""The telemetry session: one run's spans, probes, findings and stream.

A :class:`TelemetrySession` is the single object a caller threads
through a traced simulation: the bench opens spans on it, devices
register probes against it, and the dynamic-rule monitor folds the
observed statistics into severity events at the end.  Everything is
explicit -- there is no global/ambient session, so untraced code paths
carry literally no telemetry state and a disabled bench
(``telemetry=None``, the default) runs the exact seed code path.

The session is also the one writer of a run's event stream: it assigns
every span its ``id`` and its parent's ``id`` and writes the span's
record (:meth:`Span.as_record`) into its ``span_start`` and
``span_finish`` events, and it writes the probes and findings of each
rule evaluation, so the stream alone rebuilds the tree.

Typical use::

    session = TelemetrySession("modulator2")
    bench = TestBench(sample_rate=2.45e6, telemetry=session)
    bench.measure(SIModulator2(), amplitude=3e-6, frequency=2e3)
    print(session.render_span_tree())
    print(session.render_probe_table())
    print(session.summary())
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from repro.errors import TelemetryError
from repro.findings import Report
from repro.telemetry.events import TelemetryEvent
from repro.telemetry.monitor import DynamicRuleMonitor, default_monitor
from repro.telemetry.probes import SignalProbe
from repro.telemetry.spans import Span, render_span_tree

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observability.live import EventStream

__all__ = ["TelemetrySession"]


class TelemetrySession:
    """Spans, probes and dynamic events of one traced run (or several).

    Parameters
    ----------
    name:
        Session label, used in reports and rendered tables.
    monitor:
        Dynamic-rule monitor evaluated by :meth:`evaluate_rules`; the
        default four-rule monitor when omitted.
    stream:
        Optional live event sink
        (:class:`~repro.observability.live.EventStream`): every span
        attached to the session emits ``span_start``/``span_finish``
        as it happens, each rule evaluation emits ``probe`` and
        ``finding`` events, so long sweeps show progress before they
        finish.  None (the default) emits nothing and costs nothing.
    """

    def __init__(
        self,
        name: str = "telemetry",
        monitor: DynamicRuleMonitor | None = None,
        stream: "EventStream | None" = None,
    ) -> None:
        self.name = name
        self.monitor = monitor if monitor is not None else default_monitor()
        #: Live event sink; the run's events are written into it when set.
        self.stream = stream
        #: Root spans, in creation order.
        self.roots: list[Span] = []
        #: Probes by name, in registration order.
        self.probes: dict[str, SignalProbe] = {}
        #: Events from the last :meth:`evaluate_rules` call.
        self.events: tuple[TelemetryEvent, ...] = ()
        self._stack: list[Span] = []
        self._next_id = 0

    # -- spans ---------------------------------------------------------

    def _attach(self, span: Span, parent: Span | None) -> Span:
        """Give ``span`` its ids and pid and hang it under ``parent``."""
        span.id = self._next_id
        self._next_id += 1
        span.parent = None if parent is None else parent.id
        if span.pid is None:
            span.pid = os.getpid()
        (self.roots if parent is None else parent.children).append(span)
        return span

    def _emit_span(self, span: Span, finished: bool, t: float | None = None) -> None:
        """Write the span's record as its ``span_start``/``span_finish`` event."""
        if self.stream is not None:
            event = "span_finish" if finished else "span_start"
            self.stream.emit(event, t=t, **span.as_record())

    @contextmanager
    def span(
        self, name: str, samples: int | None = None, **attrs: object
    ) -> Iterator[Span]:
        """Open a timed span; nest under the currently open span.

        The span measures wall time from entry to exit (including an
        exceptional exit, so partial runs still report honest timings).
        """
        span = self._attach(Span(name, samples=samples, **attrs), self.current_span)
        self._stack.append(span)
        self._emit_span(span, finished=False)
        span.start()
        try:
            yield span
        finally:
            span.finish()
            self._stack.pop()
            self._emit_span(span, finished=True)

    @property
    def current_span(self) -> Span | None:
        """Return the innermost open span, or None outside any span."""
        return self._stack[-1] if self._stack else None

    def record(
        self, name: str, samples: int | None = None, **attrs: object
    ) -> Span:
        """Attach a closed structural span under the current span.

        Structural spans represent hierarchy levels whose work is
        interleaved with their siblings' (the stages of a feedback
        loop, the clock phases of a cell) and therefore carry sample
        counts and attributes but no wall time of their own.

        Raises
        ------
        TelemetryError
            If no span is open (structural spans describe the inside
            of some timed span).
        """
        parent = self.current_span
        if parent is None:
            raise TelemetryError(
                f"cannot record structural span {name!r}: no span is open"
            )
        span = self._attach(Span(name, samples=samples, **attrs), parent)
        self._emit_span(span, finished=False)
        self._emit_span(span, finished=True)
        return span

    def replay(
        self, runs: Iterable[tuple[Span, float, Mapping[str, float]]]
    ) -> None:
        """Attach spans whose work ran elsewhere under the current span.

        Outside any span they become roots, as in :meth:`span`.  Each
        item is a closed span (a sweep chunk, with its worker's
        ``pid`` and ``duration_s``), its wall-clock start
        (``time.time()``) and the counter totals its work recorded.
        With a stream, every span's ``span_start``, ``span_finish``
        and ``instruments`` events are written in one pass sorted by
        those wall clocks, so chunks that ran in parallel read as one
        timeline (the stream clamps ``t``, so writing chunk by chunk
        would bend it).
        """
        parent = self.current_span
        timeline: list[tuple[float, bool, Span, Mapping[str, float]]] = []
        for span, started, counters in runs:
            self._attach(span, parent)
            timeline.append((started, False, span, counters))
            timeline.append((started + (span.duration_s or 0.0), True, span, counters))
        if self.stream is None:
            return
        for t, finished, span, counters in sorted(timeline, key=lambda item: item[0]):
            self._emit_span(span, finished, t)
            if finished:
                self.stream.emit(
                    "instruments", span.name, t=t, id=span.id, pid=span.pid, **counters
                )

    # -- probes --------------------------------------------------------

    def probe(
        self,
        name: str,
        full_scale: float | None = None,
        clip_limit: float | None = None,
        **meta: object,
    ) -> SignalProbe:
        """Return the probe named ``name``, creating it on first use.

        Re-attaching a device to the same session returns the existing
        probe (statistics keep accumulating); the creation-time
        reference and metadata win.
        """
        existing = self.probes.get(name)
        if existing is not None:
            return existing
        probe = SignalProbe(
            name, full_scale=full_scale, clip_limit=clip_limit, **meta
        )
        self.probes[name] = probe
        return probe

    # -- events --------------------------------------------------------

    def evaluate_rules(
        self, monitor: DynamicRuleMonitor | None = None
    ) -> tuple[TelemetryEvent, ...]:
        """Evaluate the dynamic rules over the current probe statistics.

        Replaces (never appends to) :attr:`events`, so evaluating after
        every measurement on a shared session stays idempotent.  With a
        stream, each probe's statistics are written as a ``probe``
        event and each finding as a ``finding`` event.
        """
        active = monitor if monitor is not None else self.monitor
        self.events = active.evaluate(self)
        if self.stream is not None:
            for probe in self.probes.values():
                self.stream.emit("probe", **probe.as_record())
        self.emit_findings(self.events)
        return self.events

    def emit_findings(self, findings: Iterable[TelemetryEvent]) -> None:
        """Write findings to the stream as ``finding`` events.

        The dynamic rules' findings arrive through
        :meth:`evaluate_rules`; a sweep hands over its executor's
        timeout and retry findings (``EXEC001``/``EXEC002``) here.
        """
        if self.stream is None:
            return
        for finding in findings:
            self.stream.emit(
                "finding",
                finding.rule,
                severity=finding.severity.name,
                source=finding.source,
                message=finding.message,
                sample_index=finding.sample_index,
            )

    @property
    def gate(self) -> Report[TelemetryEvent]:
        """Return the gate over the last evaluation's events.

        An ERROR event regresses and a WARNING warns, exactly as an ERC
        violation or a lint finding does.
        """
        return Report(self.name, self.events)

    # -- reporting -----------------------------------------------------

    def render_span_tree(self) -> str:
        """Return the span forest as an indented text table."""
        return render_span_tree(self.roots)

    def render_probe_table(self) -> str:
        """Return every probe's statistics as a paper-style table."""
        from repro.reporting.tables import render_table

        rows = []
        for probe in self.probes.values():
            swing = probe.swing_fraction
            rows.append(
                (
                    probe.name,
                    str(probe.count),
                    f"{probe.minimum:.3g}" if probe.count else "-",
                    f"{probe.maximum:.3g}" if probe.count else "-",
                    f"{probe.rms:.3g}" if probe.count else "-",
                    f"{100.0 * swing:.1f}%" if swing is not None else "-",
                    str(probe.clip_count) if probe.clip_limit is not None else "-",
                )
            )
        if not rows:
            rows = [("-", "-", "-", "-", "-", "-", "no probes registered")]
        return render_table(
            f"probes: {self.name}",
            ("probe", "n", "min [A]", "max [A]", "rms [A]", "swing", "clips"),
            rows,
        )

    def render_event_table(self) -> str:
        """Return the dynamic events as a paper-style table."""
        from repro.reporting.tables import render_table

        rows = [
            (
                event.rule,
                event.severity.name,
                event.source if event.source is not None else "<session>",
                str(event.sample_index) if event.sample_index is not None else "-",
                event.message,
            )
            for event in self.events
        ]
        if not rows:
            rows = [("-", "-", "-", "-", "no dynamic events")]
        return render_table(
            f"dynamic events: {self.name}",
            ("rule", "severity", "source", "sample", "message"),
            rows,
        )

    def summary(self) -> str:
        """Return a one-line pass/fail summary of the last evaluation."""
        gate = self.gate
        verdict = "PASS" if gate.ok else "FAIL"
        return (
            f"telemetry {verdict}: {self.name} -- "
            f"{len(self.roots)} run(s), {len(self.probes)} probe(s), "
            f"{len(gate.regressions)} error(s), "
            f"{len(gate.warnings)} warning(s)"
        )
