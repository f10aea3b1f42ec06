"""Runtime telemetry: traced spans, signal probes, dynamic rules.

The static ERC layer (:mod:`repro.erc`) checks what a design
*declares*; this package observes what a simulation actually *does*:

* :class:`~repro.telemetry.spans.Span` / ``TelemetrySession.span`` --
  hierarchical wall-time and sample-throughput accounting
  (run -> device -> stage -> clock phase);
* :class:`~repro.telemetry.probes.SignalProbe` -- streaming
  min/max/RMS/swing/clip statistics over internal currents, without
  storing waveforms;
* :class:`~repro.telemetry.monitor.DynamicRuleMonitor` -- headroom and
  class-AB bias rules (DYN001-DYN004) evaluated against the observed
  statistics, reporting through the shared ERC
  :class:`~repro.erc.rules.Severity` model.

A session handed an :class:`~repro.observability.live.EventStream`
writes the run as one JSONL stream -- span starts and finishes with
``id``/``parent`` links, probes and findings -- which is what ``repro
trace --json`` and ``repro report --events`` write.

Telemetry is strictly opt-in: devices hold no probe until
``attach_telemetry(session)`` is called, and a bench constructed
without ``telemetry=`` runs the exact untraced code path.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.telemetry.events import Severity, TelemetryEvent
    from repro.telemetry.monitor import (
        ClipRule,
        CmffResidualRule,
        DynamicRule,
        DynamicRuleMonitor,
        ObservedClassABRule,
        ObservedHeadroomRule,
        default_monitor,
    )
    from repro.telemetry.probes import SignalProbe
    from repro.telemetry.session import TelemetrySession
    from repro.telemetry.spans import Span, render_span_tree

_EXPORTS = {
    "repro.telemetry.events": ("TelemetryEvent", "Severity"),
    "repro.telemetry.monitor": (
        "DynamicRule",
        "ClipRule",
        "ObservedHeadroomRule",
        "CmffResidualRule",
        "ObservedClassABRule",
        "DynamicRuleMonitor",
        "default_monitor",
    ),
    "repro.telemetry.probes": ("SignalProbe",),
    "repro.telemetry.session": ("TelemetrySession",),
    "repro.telemetry.spans": ("Span", "render_span_tree"),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
