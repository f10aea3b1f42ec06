"""Simulation-as-a-service: a job queue and HTTP API over the engines.

``repro serve`` boots a long-lived, stdlib-only HTTP service whose job
queue fronts the same :class:`~repro.runtime.executor.SweepExecutor` /
:func:`~repro.metrics.report.build_report` machinery the CLI drives
directly.  Requests are content-addressed with the result cache's
canonical digests, so identical submissions -- concurrent or repeated
-- execute exactly once and return byte-identical run manifests.  See
``docs/SERVICE.md``.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.service.app import (
        DEFAULT_HOST,
        DEFAULT_PORT,
        ServiceConfig,
        SimulationService,
        build_server,
        normalize_request,
        serve,
    )
    from repro.service.client import ServiceClient
    from repro.service.queue import Job, JobQueue, JobRequest, JobState

_EXPORTS = {
    "repro.service.app": (
        "DEFAULT_HOST",
        "DEFAULT_PORT",
        "ServiceConfig",
        "SimulationService",
        "build_server",
        "normalize_request",
        "serve",
    ),
    "repro.service.client": ("ServiceClient",),
    "repro.service.queue": ("Job", "JobQueue", "JobRequest", "JobState"),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
