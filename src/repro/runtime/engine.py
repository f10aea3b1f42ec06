"""The rung decision: which engine runs a device, decided in one place.

Every supported device executes bit-identically on three rungs:

* ``kernel`` -- the compiled state-space kernel tier
  (:mod:`repro.runtime.kernels`), optionally numba-JIT;
* ``batch`` -- the same compiled program's lane layout, many lanes at
  once (:mod:`repro.runtime.batch`);
* ``scalar`` -- the original per-sample Python loop, the parity
  oracle that :func:`force_scalar` runs.

Two entry points take the decision.  Every device ``run`` method
first calls :func:`run_single`, which runs the kernel and returns its
output, or returns ``None`` so the caller falls through to its scalar
loop.  A sweep shard calls :func:`run_lanes`, the one ladder for many
lanes: the kernel lane by lane for narrow shards, the batch rung for
wide ones, and lane-by-lane single runs when the batch rung refuses.

The default rung is ``auto``; :func:`use_engine` pins another for the
block.  The pin is context-local (one :class:`~contextvars.ContextVar`),
so the innermost block wins and no pin crosses a thread; worker
processes do not inherit it, so :func:`~repro.runtime.sweeps.run_sweep`
reads it once in the parent and hands it to each shard.  Every
executed run is counted in ``repro.engine.runs`` (labelled by engine
and device type), and every refusal in ``repro.single.fallbacks`` or
``repro.batch.refusals`` with its ``reason``, so a manifest's
``instruments`` say which rung ran each device and why any fell back.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from contextlib import AbstractContextManager, contextmanager
from contextvars import ContextVar

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "ENGINES",
    "current_engine",
    "force_scalar",
    "record_engine_run",
    "run_lanes",
    "run_single",
    "use_engine",
]

#: The rungs :func:`use_engine` can pin.  A single run has one lane,
#: so it treats ``kernel`` and ``batch`` the same as ``auto``.
ENGINES: tuple[str, ...] = ("auto", "scalar", "kernel", "batch")

#: The pin inside :func:`force_scalar`: the scalar loop, uncounted.
_ORACLE = "oracle"

#: The rung pinned for runs in this context.
_pin: ContextVar[str] = ContextVar("repro_engine_pin", default="auto")

#: Crossover between the scalar kernel run lane by lane and the lane
#: layout running all lanes at once: below it the kernel's per-sample
#: fusion wins, above it the lanes amortise the NumPy dispatch.  With
#: the kernel's input prologue and folds (16,640-step lanes, no numba,
#: one pinned core of a shared 2-core x86 host, best of three runs,
#: measured twice) batch overtakes the kernel at about 8-10 lanes for the
#: delay line (4-6 before them), 6-8 for modulator2, 8 for the chopper
#: and 12 or more for modulator1.  No sweep workload sits between 7
#: and 33 lanes, so a move off 16 could not be measured end to end.
_KERNEL_CROSSOVER_LANES = 16


def current_engine() -> str:
    """Return the rung pinned in this context.

    One of :data:`ENGINES`, or ``"oracle"`` inside :func:`force_scalar`.
    """
    return _pin.get()


@contextmanager
def _pinned(rung: str) -> Iterator[None]:
    token = _pin.set(rung)
    try:
        yield
    finally:
        _pin.reset(token)


def use_engine(engine: str) -> AbstractContextManager[None]:
    """Pin the rung for runs inside the block, in this context only.

    ``scalar`` runs the per-sample loop (counted), ``kernel`` runs
    sweep lanes one at a time on the compiled kernel, ``batch`` runs
    them on the lane layout, and ``auto`` picks by shard width.  A
    refused rung falls down the ladder with its reason counted.  The
    innermost block wins.

    Raises
    ------
    ConfigurationError
        If ``engine`` is not one of :data:`ENGINES`.
    """
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown engine {engine!r}; expected one of {', '.join(ENGINES)}"
        )
    return _pinned(engine)


def force_scalar() -> AbstractContextManager[None]:
    """Run the original per-sample loop inside the block (the parity oracle).

    Runs executed under ``force_scalar`` are neither counted nor
    recorded as fallbacks.
    """
    return _pinned(_ORACLE)


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


def run_single(device: object, data: np.ndarray) -> np.ndarray | None:
    """Run ``device`` over 1-D ``data`` on the compiled kernel.

    Returns the output array, bit-identical to the device's scalar loop
    with device state and random streams advanced identically, or
    ``None`` when the caller must run its scalar loop instead: inside
    :func:`force_scalar`, under a pinned ``scalar`` engine, or when the
    kernel refuses (an exotic subclass, a non-1-D input).  A refusal is
    counted in ``repro.single.fallbacks`` with its reason.  Each
    executed run is counted in ``repro.engine.runs`` under the rung
    that ran (forced-scalar parity runs are not recorded).
    """
    pin = _pin.get()
    if pin == _ORACLE:
        return None
    if pin == "scalar":
        record_engine_run("scalar", device)
        return None
    # Imported lazily: device modules call in here, and the kernel
    # package imports those device modules.
    from repro.runtime.kernels import KernelUnsupported, run_kernel

    try:
        result = run_kernel(device, data)
    except KernelUnsupported as error:
        from repro.observability.instruments import get_registry

        get_registry().counter(
            "repro.single.fallbacks",
            help="single runs that fell back to the scalar loop",
        ).inc(device=type(device).__name__, reason=str(error))
        record_engine_run("scalar", device)
        return None
    record_engine_run("kernel", device)
    return result


def run_lanes(
    device: Callable[[np.ndarray], np.ndarray], stimuli: np.ndarray, pin: str
) -> tuple[np.ndarray, str]:
    """Run each row of ``stimuli`` as one lane of ``device``; the ladder.

    Lane ``k`` consumes the ``k``-th slice of every random stream,
    exactly like the scalar reference sweep running its lanes one by
    one on this device, whichever rung runs it.  ``pin`` is the rung
    the caller's context pinned (:func:`current_engine`): ``auto``
    takes the batch rung above :data:`_KERNEL_CROSSOVER_LANES` lanes,
    ``batch`` always tries it, and otherwise -- or when the batch rung
    refuses, counted with its reason -- the lanes run one at a time
    through the device's own call (:func:`run_single`) under the pin.

    Returns the outputs (lanes, steps) and the rung that ran them.
    """
    n_lanes, n_steps = stimuli.shape
    if pin == "batch" or (pin == "auto" and n_lanes > _KERNEL_CROSSOVER_LANES):
        # Imported lazily: a single run never needs the batch runners.
        from repro.runtime.batch import BatchUnsupported, batch_runner_for

        try:
            runner = batch_runner_for(device, n_lanes=n_lanes, n_steps=n_steps)
        except BatchUnsupported:
            pass
        else:
            outputs = runner.run(stimuli)
            record_engine_run("batch", device, count=n_lanes)
            return outputs, "batch"
    from repro.runtime.kernels import kernel_refusal

    on_kernel = pin not in ("scalar", _ORACLE) and kernel_refusal(device) is None
    outputs = np.empty(stimuli.shape)
    with _pinned(pin):
        for lane in range(n_lanes):
            outputs[lane] = device(stimuli[lane])
    return outputs, "kernel" if on_kernel else "scalar"
