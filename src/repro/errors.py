"""Exception hierarchy for the ``repro`` switched-current library.

Every exception raised deliberately by this package derives from
:class:`ReproError` so applications can catch library failures with a
single ``except`` clause while letting programming errors (``TypeError``
and friends) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """A component was constructed or configured with invalid parameters."""


class ClockingError(ReproError):
    """A sampled-data block was evaluated on the wrong clock phase."""


class ERCError(ReproError):
    """A static electrical-rule check found blocking violations.

    Raised by :func:`repro.erc.checker.check_design` (and therefore by
    :class:`~repro.systems.testbench.TestBench` pre-flight checking)
    when a design graph violates an ERROR-severity rule.  The full
    :class:`~repro.erc.checker.ErcReport` is available on
    :attr:`report` so callers can render the violation table.
    """

    def __init__(self, message: str, report: object | None = None) -> None:
        super().__init__(message)
        self.report = report


class TelemetryError(ReproError):
    """The telemetry API was misused.

    Raised on span lifecycle violations (finishing a span that never
    started, starting one twice, recording outside any open span) and
    on invalid probe parameters (non-positive full scale or clip
    limit).  Dynamic *rule* findings are never exceptions -- they are
    :class:`~repro.telemetry.events.TelemetryEvent` records on the
    session.
    """


class ObservabilityError(ReproError):
    """The observability API was misused or fed malformed data.

    Raised on invalid instrument names or kinds (re-registering a
    counter as a gauge), negative counter increments, malformed
    snapshot documents handed to merge/diff, and unparsable serialized
    span records.  Instrument *values* are never exceptions -- drift
    between two snapshots is an
    :class:`~repro.observability.stats.InstrumentDiff`, surfaced as a
    process exit code by ``repro stats --diff``.
    """


class MetricsError(ReproError):
    """The paper-metrics layer was misused or fed malformed data.

    Raised on unknown metric names, non-finite metric values, malformed
    run manifests and baseline files, and invalid comparison requests.
    A metric *regression* is never an exception -- it is a
    :class:`~repro.metrics.compare.MetricDiff` in the comparison
    report, surfaced as a process exit code by ``repro compare``.
    """


class ServiceError(ReproError):
    """The simulation service was misused or fed a malformed request.

    Raised on invalid job requests (unknown kind, bad design name,
    malformed spec fields), lookups of unknown job ids, and client-side
    protocol failures.  A job that *fails while executing* is never an
    exception at the API boundary -- it is a ``failed`` job state with
    the error message recorded on the job descriptor.
    """


class QueueFullError(ServiceError):
    """The service job queue rejected a submission (backpressure).

    Raised by :meth:`repro.service.queue.JobQueue.submit` when the
    pending backlog is at capacity; the HTTP layer maps it to a 429
    response so clients retry instead of piling work up unboundedly.
    """


class AnalysisError(ReproError):
    """A measurement or spectral analysis could not be performed."""


class StimulusError(ReproError):
    """A stimulus generator was asked for an unrealisable waveform."""
