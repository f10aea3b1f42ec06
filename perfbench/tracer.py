"""In-memory span recorder that wraps the program's public layer calls.

The benchmark times each layer from the outside: :meth:`Tracer.install`
replaces a public function or method with a timing wrapper at *every*
name it is bound to (a function imported by name into five modules is
wrapped in all five), records one span per call -- name, start, end,
parent, thread -- and keeps the spans in memory until the run dumps
them.  Nothing under ``src/`` changes.

Self time is a span's duration minus the part its child spans (same
thread, opened inside it) cover.  All timestamps come from
``time.perf_counter``, which on Linux reads the system-wide monotonic
clock, so spans recorded in child processes line up with the parent's.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterable
from typing import Any

#: Modules whose attributes are scanned for bindings of a wrapped object.
PACKAGE_PREFIX = "repro"


def _compile_note(spec: Any) -> dict[str, Any]:
    from repro.runtime.kernels import codegen

    return {"miss": spec not in codegen._CACHE}


def _kernel_note(device: Any, data: Any) -> dict[str, Any]:
    return {"samples": int(getattr(data, "shape", (0,))[0])}


def _batch_note(stimuli: Any) -> dict[str, Any]:
    lanes, steps = stimuli.shape
    return {"lanes": int(lanes), "samples": int(lanes) * int(steps)}


#: (span name, module, attribute path, note) for every traced call.
#: A note maps the call's arguments to span attributes (counts).
FUNCTIONS: tuple[tuple[str, str, str, Callable[..., dict[str, Any]] | None], ...] = (
    ("metrics.build_report", "repro.metrics.report", "build_report", None),
    ("metrics.provenance", "repro.metrics.provenance", "collect_provenance", None),
    ("metrics.manifest_write", "repro.metrics.manifest", "RunManifest.write_json", None),
    ("observability.ledger.append", "repro.observability.ledger", "RunLedger.append", None),
    ("runtime.cache.load", "repro.runtime.cache", "ResultCache.load", None),
    ("runtime.cache.store", "repro.runtime.cache", "ResultCache.store", None),
    ("runtime.sweeps.run", "repro.runtime.sweeps", "run_sweep", None),
    ("runtime.kernels.build_spec", "repro.runtime.kernels.spec", "build_spec", None),
    ("runtime.kernels.compile", "repro.runtime.kernels.codegen", "compile_spec", _compile_note),
    ("runtime.kernels.run", "repro.runtime.kernels.runner", "run_kernel", _kernel_note),
    ("systems.testbench.measure", "repro.systems.testbench", "TestBench.measure", None),
    ("systems.stimulus.generate", "repro.systems.stimulus", "SineStimulus.generate", None),
    ("analysis.spectrum", "repro.analysis.spectrum", "compute_spectrum", None),
    ("analysis.measure_tone", "repro.analysis.metrics", "measure_tone", None),
    ("erc.preflight", "repro.erc.checker", "check_design", None),
)

#: The NumPy batch runners ``batch_runner_for`` returns; each ``run`` is
#: traced as ``runtime.batch.run``.
BATCH_RUNNERS: tuple[str, ...] = (
    "BatchClassABCell",
    "BatchDelayLine",
    "BatchBiquadCascade",
    "BatchModulator1",
    "BatchModulator2",
    "BatchChopper",
)

#: Server-side service calls, traced only in the ``repro serve`` process.
SERVICE_FUNCTIONS: tuple[tuple[str, str, str, None], ...] = (
    ("service.normalize", "repro.service.app", "normalize_request", None),
    ("service.run_job", "repro.service.app", "SimulationService._run_job", None),
    ("service.queue_submit", "repro.service.queue", "JobQueue.submit", None),
    ("service.job_wait", "repro.service.queue", "Job.wait", None),
    ("service.handler", "repro.service.handlers", "ServiceHandler.do_GET", None),
    ("service.handler", "repro.service.handlers", "ServiceHandler.do_POST", None),
)

#: Client-side calls of the load generator.
CLIENT_FUNCTIONS: tuple[tuple[str, str, str, None], ...] = (
    ("service.client", "repro.service.client", "ServiceClient.submit", None),
    ("service.client", "repro.service.client", "ServiceClient.result_bytes", None),
)


class Tracer:
    """Collects spans from wrapped calls; thread-safe, in memory only."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index, thread id, attrs]`` per span.
        self.spans: list[list[Any]] = []
        #: ``(module or class, attribute)`` of every binding replaced.
        self.sites: list[tuple[str, str]] = []
        self._restore: list[tuple[Any, str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        note: Callable[..., dict[str, Any]] | None = None,
        method: bool = False,
    ) -> Callable[..., Any]:
        """Return ``fn`` wrapped to record one ``name`` span per call."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            attrs = note(*(args[1:] if method else args), **kwargs) if note else {}
            record = [
                name,
                time.perf_counter(),
                0.0,
                stack[-1] if stack else -1,
                threading.get_ident(),
                attrs,
            ]
            with self._lock:
                index = len(self.spans)
                self.spans.append(record)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self, targets: Iterable[tuple[str, str, str, Any]]) -> None:
        """Wrap every target at each of its bindings in loaded modules."""
        for name, module_name, path, note in targets:
            module = importlib.import_module(module_name)
            if "." in path:
                owner_name, attr = path.split(".")
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._replace(owner, attr, self.wrap(name, original, note, method=True))
                continue
            original = getattr(module, path)
            wrapped = self.wrap(name, original, note)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded is None or not loaded_name.startswith(PACKAGE_PREFIX):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        self._replace(loaded, attr, wrapped)

    def install_batch_runners(self) -> None:
        """Wrap ``run`` on each NumPy batch runner class."""
        from repro.runtime import batch

        for class_name in BATCH_RUNNERS:
            owner = getattr(batch, class_name)
            self._replace(
                owner,
                "run",
                self.wrap("runtime.batch.run", owner.__dict__["run"], _batch_note, method=True),
            )

    def _replace(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)
        self.sites.append((getattr(owner, "__name__", repr(owner)), attr))

    def uninstall(self) -> None:
        """Put every replaced binding back, newest first."""
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def dump(self) -> list[list[Any]]:
        """Return the finished spans as JSON-ready lists."""
        with self._lock:
            return [list(span) for span in self.spans if span[2]]


def install_program(tracer: Tracer, service: bool = False) -> None:
    """Install the program-side wrappers (plus the server's, if asked)."""
    targets: list[tuple[str, str, str, Any]] = list(FUNCTIONS)
    if service:
        targets.extend(SERVICE_FUNCTIONS)
    tracer.install(targets)
    tracer.install_batch_runners()


def self_times(spans: list[list[Any]]) -> list[float]:
    """Return each span's duration minus its direct children's."""
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        parent = span[3]
        if parent >= 0:
            own[parent] -= span[2] - span[1]
    return own


def summarize(spans: list[list[Any]]) -> dict[str, dict[str, float]]:
    """Aggregate spans by name: calls, self and total seconds, attrs."""
    table: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0.0, "self_s": 0.0, "total_s": 0.0}
    )
    for span, own in zip(spans, self_times(spans)):
        row = table[span[0]]
        row["calls"] += 1
        row["self_s"] += own
        row["total_s"] += span[2] - span[1]
        for key, value in (span[5] or {}).items():
            row[key] = row.get(key, 0.0) + float(value)
    return dict(table)
