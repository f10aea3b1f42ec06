"""The simulation service: request normalization, runners, server.

``repro serve`` turns the repo's batch engines into a long-lived
HTTP service.  This module is its core, in three layers:

* :func:`normalize_request` -- the canonicalizer.  A raw JSON request
  becomes a :class:`~repro.service.queue.JobRequest` whose params are
  fully resolved (design aliases expanded, defaults filled, knobs
  stored as floats), so every spelling of the same simulation digests
  to the same job id and dedups server-side.
* :class:`SimulationService` -- owns the shared artifact store (one
  byte-budgeted :class:`~repro.runtime.cache.ResultCache` for every
  job), the :class:`~repro.service.queue.JobQueue`, and the runners
  that execute ``report`` and ``sweep`` jobs through the exact same
  code paths as the CLI -- manifests served over HTTP are
  bit-identical to ``repro report`` output.  Every executed run is
  appended to the observability ledger (``--no-ledger`` opts out), so
  ``repro history`` and ``repro trend`` cover served traffic too.
* :func:`build_server` / :func:`serve` -- a stdlib
  :class:`~http.server.ThreadingHTTPServer` wiring the service to
  :class:`~repro.service.handlers.ServiceHandler`.

See ``docs/SERVICE.md`` for the endpoint reference.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from http.server import ThreadingHTTPServer
from typing import TYPE_CHECKING, Any, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observability.ledger import RunLedger
    from repro.telemetry.session import TelemetrySession

from repro.errors import ConfigurationError, ServiceError
from repro.runtime.cache import ResultCache
from repro.service.queue import Job, JobQueue, JobRequest

__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "MAX_REQUEST_SAMPLES",
    "ServiceConfig",
    "SimulationService",
    "build_server",
    "normalize_request",
    "serve",
]

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8765

#: Service-side default FFT length for ``report`` jobs: a quarter of
#: the paper's 64K keeps interactive latency in seconds while staying
#: above the sweep engine's 8K lane floor.
DEFAULT_REPORT_SAMPLES = 1 << 14

#: Largest ``n_samples`` a network request may ask for, report or
#: sweep: the paper's own 64K-point FFT.  A worker thread runs one job
#: at a time and holds its arrays in memory, so without a ceiling one
#: request could occupy a worker for hours or exhaust the host's
#: memory.  The CLI has no ceiling: a local user sizes their own runs.
MAX_REQUEST_SAMPLES = 1 << 16

_REQUEST_KINDS = ("report", "sweep")


@dataclass(frozen=True)
class ServiceConfig:
    """Everything ``repro serve`` can configure.

    Attributes
    ----------
    jobs:
        Worker-process count handed to each simulation's
        :class:`~repro.runtime.executor.SweepExecutor` (bit-identical
        at any value).
    workers:
        Queue worker threads; 1 (the default) runs one simulation at a
        time.  Concurrent jobs count apart: each report's manifest
        holds only its own run's instruments.
    max_pending:
        Queue backpressure limit (HTTP 429 past it).
    max_bytes:
        Byte budget of the shared result cache; ``None`` never evicts.
    ledger:
        Append every executed run to the observability run ledger
        (``repro serve --no-ledger`` disables).
    """

    host: str = DEFAULT_HOST
    port: int = DEFAULT_PORT
    jobs: int = 1
    workers: int = 1
    max_pending: int = 64
    cache_dir: str | None = None
    max_bytes: int | None = None
    ledger: bool = True
    ledger_dir: str | None = None


def _check_samples(n_samples: int) -> None:
    """Refuse a request longer than :data:`MAX_REQUEST_SAMPLES`."""
    if n_samples > MAX_REQUEST_SAMPLES:
        raise ServiceError(
            f"n_samples must be <= {MAX_REQUEST_SAMPLES} (the paper's "
            f"64K FFT), got {n_samples}"
        )


def normalize_request(raw: Mapping[str, Any]) -> JobRequest:
    """Canonicalize a raw JSON request into a :class:`JobRequest`.

    Two requests that mean the same simulation must normalize to the
    same params -- the request digest (and therefore dedup) is computed
    over the *normalized* form.  Aliases are resolved (``mod2`` and
    ``modulator2`` dedup together), defaults are materialized, and a
    report's knobs are stored as floats (``1`` and ``1.0`` share a
    digest).  Fields are checked, never coerced: ``sweep`` must be a
    JSON boolean and the knobs JSON numbers.

    Raises
    ------
    ServiceError
        On an unknown kind, unknown design, malformed sweep spec,
        mistyped field, out-of-range degradation knob, or ``n_samples``
        above :data:`MAX_REQUEST_SAMPLES`.
    """
    if not isinstance(raw, Mapping):
        raise ServiceError(
            f"request must be a JSON object, got {type(raw).__name__}"
        )
    kind = str(raw.get("kind", "report"))
    if kind not in _REQUEST_KINDS:
        raise ServiceError(
            f"unknown request kind {kind!r}; expected one of {_REQUEST_KINDS}"
        )
    if kind == "sweep":
        from repro.runtime.sweeps import sweep_spec_from_mapping

        spec_raw = raw.get("spec")
        if not isinstance(spec_raw, Mapping):
            raise ServiceError("sweep request needs a 'spec' object")
        try:
            spec = sweep_spec_from_mapping(spec_raw)
        except ConfigurationError as exc:
            raise ServiceError(str(exc)) from exc
        _check_samples(spec.n_samples)
        # The spec's own cache key is the canonical form: dedup at the
        # service level matches dedup at the result-cache level.
        return JobRequest(kind="sweep", params=spec.cache_key())

    from repro.designs import check_knobs, resolve

    design = raw.get("design")
    if not isinstance(design, str) or not design:
        raise ServiceError("report request needs a 'design' name")
    try:
        entry = resolve(design)
        entry.point  # an ERC-only design has no measurement to run
    except ConfigurationError as exc:
        raise ServiceError(str(exc)) from exc
    n_samples = raw.get("n_samples", DEFAULT_REPORT_SAMPLES)
    if not isinstance(n_samples, int) or isinstance(n_samples, bool):
        raise ServiceError(
            f"n_samples must be an integer, got {n_samples!r}"
        )
    if n_samples < 1 << 13:
        # Below 8K the 2 kHz tone collides with the Blackman window's
        # DC lobe and the analysis refuses the measurement.
        raise ServiceError(
            f"n_samples must be >= {1 << 13}, got {n_samples}"
        )
    _check_samples(n_samples)
    sweep = raw.get("sweep", True)
    if not isinstance(sweep, bool):
        raise ServiceError(f"sweep must be true or false, got {sweep!r}")
    noise_scale = raw.get("noise_scale", 1.0)
    mismatch = raw.get("mismatch", 0.0)
    try:
        check_knobs(noise_scale, mismatch)
    except ConfigurationError as exc:
        raise ServiceError(str(exc)) from exc
    params: dict[str, Any] = {
        "design": entry.name,
        "n_samples": n_samples,
        "sweep": sweep,
        "noise_scale": float(noise_scale),
        "mismatch": float(mismatch),
    }
    return JobRequest(kind="report", params=params)


class SimulationService:
    """The queue, the shared cache and the runners behind the HTTP API."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.cache = ResultCache(
            self.config.cache_dir, max_bytes=self.config.max_bytes
        )
        self.queue = JobQueue(
            self._run_job,
            workers=self.config.workers,
            max_pending=self.config.max_pending,
        )
        # One ledger for the service's life: each append parses only the
        # lines appended since the last, and checks and appends under the
        # ledger's lock, so concurrent workers never store a run twice.
        self.ledger: RunLedger | None = None
        if self.config.ledger:
            from repro.observability.ledger import RunLedger

            self.ledger = RunLedger(self.config.ledger_dir)
        self.started_at = time.time()

    def submit(self, raw: Mapping[str, Any]) -> tuple[Job, str]:
        """Normalize and enqueue a raw request; see :meth:`JobQueue.submit`."""
        return self.queue.submit(normalize_request(raw))

    def close(self) -> None:
        """Shut the job queue down (pending jobs are cancelled)."""
        self.queue.close()

    # -- runners -------------------------------------------------------

    def _run_job(self, job: Job) -> dict[str, Any]:
        """Execute one job; called on a queue worker thread.

        The job's event stream is wired into the telemetry session, so
        every simulation span lands in the ``/events`` tail live.
        """
        from repro.telemetry.session import TelemetrySession

        session = TelemetrySession(
            f"service:{job.request.kind}", stream=job.stream
        )
        if job.request.kind == "sweep":
            result = self._run_sweep(job, session)
        else:
            result = self._run_report(job, session)
        self._ledger_append(job, result)
        return result

    def _run_report(
        self, job: Job, session: "TelemetrySession"
    ) -> dict[str, Any]:
        from repro.metrics.provenance import collect_provenance
        from repro.metrics.report import build_report

        params = job.request.params
        manifest = build_report(
            str(params["design"]),
            n_samples=int(params["n_samples"]),
            sweep=bool(params["sweep"]),
            noise_scale=float(params["noise_scale"]),
            mismatch=float(params["mismatch"]),
            provenance=collect_provenance(
                argv=["repro", "serve", "--job", job.id[:12]]
            ),
            jobs=self.config.jobs,
            cache=self.cache,
            session=session,
        )
        return manifest.as_dict()

    def _run_sweep(
        self, job: Job, session: "TelemetrySession"
    ) -> dict[str, Any]:
        from repro.runtime.executor import SweepExecutor
        from repro.runtime.sweeps import run_sweep, sweep_spec_from_mapping

        fields = {
            key: value
            for key, value in job.request.params.items()
            if key != "kind"
        }
        spec = sweep_spec_from_mapping(fields)
        result = run_sweep(
            spec,
            executor=SweepExecutor(jobs=self.config.jobs),
            cache=self.cache,
            telemetry=session,
        )
        # Mirrors the ``repro sweep`` ledger payload so ``repro
        # history``/``trend`` treat served sweeps like CLI sweeps.
        return {
            "design": spec.design,
            "levels_db": list(spec.levels_db),
            "n_samples": spec.n_samples,
            "snr_db": [m.snr_db for m in result.metrics],
            "thd_db": [m.thd_db for m in result.metrics],
            "sndr_db": [m.sndr_db for m in result.metrics],
            "peak_sndr_db": result.peak_sndr_db,
        }

    def _ledger_append(self, job: Job, result: dict[str, Any]) -> None:
        """Record an executed run in the observability ledger.

        Best-effort by design: a read-only ledger directory must not
        fail a simulation that already succeeded.  A report's manifest
        goes in unchanged, as ``repro report`` appends it, so identical
        runs content-address to the same ledger entry.
        """
        if self.ledger is None:
            return
        from repro.errors import ObservabilityError

        design = result.get("design")
        try:
            self.ledger.append(
                job.request.kind,
                result,
                design=design if isinstance(design, str) else None,
            )
        except (ObservabilityError, OSError) as exc:
            try:
                job.stream.emit(
                    "ledger_skipped", job.request.kind, error=str(exc)
                )
            except Exception:  # noqa: BLE001 - bookkeeping only
                pass


class ServiceServer(ThreadingHTTPServer):
    """HTTP server carrying its :class:`SimulationService` instance."""

    daemon_threads = True

    def __init__(
        self, address: tuple[str, int], service: SimulationService
    ) -> None:
        from repro.service.handlers import ServiceHandler

        self.service = service
        super().__init__(address, ServiceHandler)


def build_server(
    service: SimulationService,
    host: str | None = None,
    port: int | None = None,
) -> ServiceServer:
    """Bind the HTTP server for ``service`` (port 0 picks a free one)."""
    config = service.config
    return ServiceServer(
        (host if host is not None else config.host,
         port if port is not None else config.port),
        service,
    )


def serve(config: ServiceConfig | None = None) -> int:
    """Run the service until interrupted; returns an exit code.

    Prints the bound address on stdout before blocking so scripts (and
    the CI smoke job) can wait on readiness by reading one line.
    """
    service = SimulationService(config)
    server = build_server(service)
    host, port = server.server_address[0], server.server_address[1]
    print(f"repro service listening on http://{host}:{port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.close()
    return 0
