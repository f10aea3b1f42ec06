"""Engine selection for single-device runs.

Every supported device executes bit-identically on two rungs:

* ``kernel`` -- the compiled state-space kernel tier
  (:mod:`repro.runtime.kernels`), optionally numba-JIT;
* ``scalar`` -- the original per-sample Python loop, the parity
  oracle that :func:`force_scalar` runs.

Every device ``run`` method first calls :func:`run_single`, which runs
the kernel and returns its output, or returns ``None`` so the caller
falls through to its scalar loop.  :func:`use_engine` pins the rung
for runs inside the block; the default ``auto`` tries the kernel and
falls to scalar on a named refusal, which is noted (see
:func:`consume_fallbacks`) and counted in ``repro.single.fallbacks``.
The selection is process-local (sweep worker processes inherit it via
the spec, not this stack) and every executed run is counted in the
``repro.engine.runs`` instrument, labelled by engine and device type,
so manifests and bench telemetry can attribute timings to the rung
that actually ran.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager

import numpy as np

__all__ = [
    "ENGINES",
    "consume_fallbacks",
    "current_engine",
    "force_scalar",
    "record_engine_run",
    "run_single",
    "use_engine",
]

#: Selectable engines for single runs.
ENGINES: tuple[str, ...] = ("auto", "scalar", "kernel")

#: Upper bound on retained fallback messages; keeps a long-running
#: session from accumulating unbounded diagnostics.
_MAX_FALLBACKS = 1024

_stack: list[str] = ["auto"]
_fallbacks: list[str] = []
_force_depth = 0


def current_engine() -> str:
    """Return the engine pinned by the innermost :func:`use_engine`."""
    return _stack[-1]


@contextmanager
def use_engine(engine: str) -> Iterator[None]:
    """Pin the execution engine for runs inside the block.

    ``scalar`` forces the per-sample oracle, ``kernel`` and ``auto``
    run the compiled kernel (falling back to scalar with a recorded
    refusal when the device cannot lower).  Nestable; the innermost
    selection wins.
    """
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {', '.join(ENGINES)}"
        )
    _stack.append(engine)
    try:
        yield
    finally:
        _stack.pop()


@contextmanager
def force_scalar() -> Iterator[None]:
    """Run the original per-sample loop inside the block (the parity oracle).

    Runs executed under ``force_scalar`` are neither counted nor noted
    as fallbacks.
    """
    global _force_depth
    _force_depth += 1
    try:
        yield
    finally:
        _force_depth -= 1


def consume_fallbacks() -> list[str]:
    """Return and clear the recorded kernel refusal reasons.

    Each entry is ``"<DeviceType>: <reason>"`` for one ``run_single``
    call that fell to the scalar loop because the kernel refused
    (forced and pinned scalar runs are not recorded).  An empty list
    means every routed run stayed on the kernel.
    """
    global _fallbacks
    out = _fallbacks
    _fallbacks = []
    return out


def record_engine_run(engine: str, device: object, count: int = 1) -> None:
    """Count ``count`` executed runs on ``engine`` for telemetry attribution.

    A batch shard passes its lane count: each lane is one run of the
    scalar reference sweep, so the counter stays comparable across
    rungs.
    """
    # Imported lazily to keep the hot run path free of registry
    # machinery until a run actually completes.
    from repro.observability.instruments import get_registry

    get_registry().counter(
        "repro.engine.runs",
        help="single-device runs by executing engine tier",
    ).inc(float(count), engine=engine, device=type(device).__name__)


def _note(device: object, reason: str) -> None:
    if len(_fallbacks) < _MAX_FALLBACKS:
        _fallbacks.append(f"{type(device).__name__}: {reason}")
    from repro.observability.instruments import get_registry

    get_registry().counter(
        "repro.single.fallbacks",
        help="single runs that fell back to the scalar loop",
    ).inc(device=type(device).__name__)


def run_single(device: object, data: np.ndarray) -> np.ndarray | None:
    """Run ``device`` over 1-D ``data`` on the compiled kernel.

    Returns the output array, bit-identical to the device's scalar loop
    with device state and random streams advanced identically, or
    ``None`` when the caller must run its scalar loop instead: inside
    :func:`force_scalar`, under a pinned ``scalar`` engine, or when the
    kernel refuses (an exotic subclass, a non-1-D input).  A refusal is
    noted once per run for :func:`consume_fallbacks`.  Each executed
    run is counted in ``repro.engine.runs`` under the rung that ran
    (forced-scalar parity runs are not recorded).
    """
    if _force_depth > 0:
        return None
    if current_engine() == "scalar":
        record_engine_run("scalar", device)
        return None
    # Imported lazily: device modules call in here, and the kernel
    # package imports those device modules.
    from repro.runtime.kernels import KernelUnsupported, run_kernel

    try:
        result = run_kernel(device, data)
    except KernelUnsupported as error:
        _note(device, str(error))
        record_engine_run("scalar", device)
        return None
    record_engine_run("kernel", device)
    return result
