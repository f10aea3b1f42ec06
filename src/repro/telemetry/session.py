"""The telemetry session: one run's spans, probes and events.

A :class:`TelemetrySession` is the single object a caller threads
through a traced simulation: the bench opens spans on it, devices
register probes against it, and the dynamic-rule monitor folds the
observed statistics into severity events at the end.  Everything is
explicit -- there is no global/ambient session, so untraced code paths
carry literally no telemetry state and a disabled bench
(``telemetry=None``, the default) runs the exact seed code path.

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
from typing import TYPE_CHECKING, Iterator

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
        Session label, used in reports and the JSONL trace header.
    monitor:
        Dynamic-rule monitor evaluated by :meth:`evaluate_rules`; the
        default four-rule monitor when omitted.
    stream:
        Optional live event sink
        (:class:`~repro.observability.live.EventStream`): every span
        opened on the session additionally emits ``span_start`` /
        ``span_finish`` events as it happens, so long sweeps show
        progress before they finish.  None (the default) emits
        nothing and costs nothing.
    """

    def __init__(
        self,
        name: str = "telemetry",
        monitor: DynamicRuleMonitor | None = None,
        stream: "EventStream | None" = None,
    ) -> None:
        self.name = name
        self.monitor = monitor if monitor is not None else default_monitor()
        #: Live event sink; span open/close mirror into it when set.
        self.stream = stream
        #: Root spans, in creation order.
        self.roots: list[Span] = []
        #: Probes by name, in registration order.
        self.probes: dict[str, SignalProbe] = {}
        #: Events from the last :meth:`evaluate_rules` call.
        self.events: tuple[TelemetryEvent, ...] = ()
        self._stack: list[Span] = []

    # -- spans ---------------------------------------------------------

    @contextmanager
    def span(
        self, name: str, samples: int | None = None, **attrs: object
    ) -> Iterator[Span]:
        """Open a timed span; nest under the currently open span.

        The span measures wall time from entry to exit (including an
        exceptional exit, so partial runs still report honest timings).
        """
        span = Span(name, samples=samples, **attrs)
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        if self.stream is not None:
            self.stream.emit(
                "span_start", span.name, pid=os.getpid(), depth=len(self._stack)
            )
        span.start()
        try:
            yield span
        finally:
            span.finish()
            self._stack.pop()
            if self.stream is not None:
                self.stream.emit(
                    "span_finish",
                    span.name,
                    pid=os.getpid(),
                    duration_s=span.duration_s,
                    samples=span.samples,
                )

    @property
    def current_span(self) -> Span | None:
        """Return the innermost open span, or None outside any span."""
        return self._stack[-1] if self._stack else None

    def record(
        self, name: str, samples: int | None = None, **attrs: object
    ) -> Span:
        """Attach a closed structural span under the current span.

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
        return parent.record(name, samples=samples, **attrs)

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
        every measurement on a shared session stays idempotent.
        """
        active = monitor if monitor is not None else self.monitor
        self.events = active.evaluate(self)
        return self.events

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
