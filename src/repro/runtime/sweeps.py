"""Batched amplitude sweeps: lanes, shards and the result cache.

This is the engine behind ``repro sweep`` and
``repro report --jobs``: it runs the same experiment as
:func:`repro.analysis.sweeps.run_amplitude_sweep` -- one lane per
input level -- but executes all lanes of a shard through the batch
runners of :mod:`repro.runtime.batch` and shards lanes across a
:class:`~repro.runtime.executor.SweepExecutor`.

Determinism contract (``docs/RUNTIME.md``):

* the scalar sweep runs its levels against *one* device instance, so
  lane ``k`` consumes the ``k``-th slice of every random stream; a
  shard starting at ``lane_offset`` fast-forwards each stream of its
  fresh device by exactly ``lane_offset * total_samples`` draws before
  any rung runs, which makes the result independent of the shard
  layout -- and bit-identical to the scalar loop;
* every rung drains the device's own live streams (cell noise,
  quantizer metastability and dither, DAC reference noise), so seeded
  and unseeded randomness and attached probes all lower; only devices
  outside the lowering protocol fall back to the scalar device per
  lane, on the same fast-forwarded streams;
* a cache entry stores the five :class:`ToneMetrics` fields per lane as
  float64 arrays, so a hit reconstructs the sweep result bit for bit.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.analysis.metrics import ToneMetrics, measure_tone
from repro.analysis.spectrum import compute_spectrum
from repro.analysis.sweeps import AmplitudeSweepResult
from repro.analysis.windows import WindowKind
from repro.config import MODULATOR_FULL_SCALE
from repro.designs import resolve
from repro.errors import AnalysisError
from repro.runtime.batch import (
    BatchUnsupported,
    batch_runner_for,
    fast_forward_streams,
)
from repro.runtime.kernels import kernel_refusal
from repro.observability.instruments import get_registry
from repro.observability.spanio import WorkerTelemetry, graft_spans
from repro.runtime.cache import ResultCache
from repro.runtime.executor import ShardContext, SweepExecutor
from repro.telemetry.spans import Span
from repro.systems.stimulus import coherent_frequency

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observability.live import EventSink
    from repro.telemetry.session import TelemetrySession

__all__ = [
    "SweepSpec",
    "run_sweep",
    "sweep_spec_for_design",
    "sweep_spec_from_mapping",
]

#: Default input levels (dB re full scale) -- the compact Table 2
#: dynamic-range sweep of ``repro report``.
DEFAULT_LEVELS_DB: tuple[float, ...] = (-50.0, -40.0, -30.0, -20.0, -10.0)

#: The five ToneMetrics fields, in constructor order; the cache stores
#: one float64 array per field.
_METRIC_FIELDS: tuple[str, ...] = (
    "fundamental_frequency",
    "signal_power",
    "harmonic_power",
    "noise_power",
    "bandwidth",
)


@dataclass(frozen=True)
class SweepSpec:
    """Complete, picklable description of one amplitude sweep.

    The spec is both the worker payload (it travels to sharded
    processes) and the cache key (every field that can change the
    result is here, nothing else).
    """

    design: str
    levels_db: tuple[float, ...]
    full_scale: float
    signal_frequency: float
    sample_rate: float
    n_samples: int
    bandwidth: float
    window: str = WindowKind.BLACKMAN.value
    settle_samples: int = 256
    noise_scale: float = 1.0
    mismatch: float = 0.0

    def cache_key(self) -> dict[str, Any]:
        """Return the cache-key dict addressing this sweep's result."""
        return {
            "kind": "amplitude-sweep",
            "design": self.design,
            "levels_db": list(self.levels_db),
            "full_scale": self.full_scale,
            "signal_frequency": self.signal_frequency,
            "sample_rate": self.sample_rate,
            "n_samples": self.n_samples,
            "bandwidth": self.bandwidth,
            "window": self.window,
            "settle_samples": self.settle_samples,
            "noise_scale": self.noise_scale,
            "mismatch": self.mismatch,
        }


def sweep_spec_for_design(
    design: str,
    n_samples: int = 1 << 16,
    levels_db: Sequence[float] = DEFAULT_LEVELS_DB,
    noise_scale: float = 1.0,
    mismatch: float = 0.0,
) -> SweepSpec:
    """Return the report-equivalent sweep spec for a named design.

    Mirrors the sweep section of :func:`repro.metrics.report.build_report`:
    half the main FFT length (8K floor), a bin-centred tone, 256 settle
    samples.
    """
    entry = resolve(design)
    point = entry.point
    sweep_n = max(1 << 13, n_samples // 2)
    return SweepSpec(
        design=entry.name,
        levels_db=tuple(float(level) for level in levels_db),
        full_scale=MODULATOR_FULL_SCALE,
        signal_frequency=coherent_frequency(
            point.frequency, point.sample_rate, sweep_n
        ),
        sample_rate=point.sample_rate,
        n_samples=sweep_n,
        bandwidth=point.bandwidth,
        settle_samples=256,
        noise_scale=noise_scale,
        mismatch=mismatch,
    )


def sweep_spec_from_mapping(raw: Mapping[str, Any]) -> SweepSpec:
    """Build a :class:`SweepSpec` from a JSON-ready field mapping.

    This is the deserialization side of the spec-as-cache-key contract,
    shared by ``repro profile <spec.json>`` and the simulation
    service's ``sweep`` job kind: the same mapping always normalizes to
    the same spec, so its canonical digest dedups identical requests.

    Raises
    ------
    ConfigurationError
        If the mapping is not a valid set of ``SweepSpec`` fields.
    """
    from repro.errors import ConfigurationError

    if not isinstance(raw, Mapping):
        raise ConfigurationError(
            f"sweep spec must be a mapping of SweepSpec fields, got {type(raw).__name__}"
        )
    data = dict(raw)
    levels = data.get("levels_db")
    if isinstance(levels, (list, tuple)):
        data["levels_db"] = tuple(float(level) for level in levels)
    try:
        return SweepSpec(**data)
    except TypeError as exc:
        raise ConfigurationError(f"invalid sweep spec: {exc}") from exc


def _build_device(spec: SweepSpec) -> Any:
    """Build a fresh device for the spec, with its degradations applied.

    It is the catalog's builder, the one
    :func:`repro.metrics.report.build_report` measures with, so a
    sharded worker reconstructs the identical device.
    """
    return resolve(spec.design).build(spec.noise_scale, spec.mismatch)


@dataclass(frozen=True)
class _ShardResult:
    """One worker's contribution: per-lane metrics plus bookkeeping."""

    metrics: tuple[ToneMetrics, ...]
    wall_s: float
    engine: str


#: Crossover between the scalar kernel run lane by lane and the lane
#: layout running all lanes at once: below it the kernel's per-sample
#: fusion wins, above it the lanes amortise the NumPy dispatch.  On the
#: generated lane layout (16,640-step lanes, no numba, one pinned Xeon
#: core) batch overtakes the kernel at about 10 lanes for the delay
#: line, 13-15 for modulator2 and the chopper and 21 for modulator1.
#: No sweep workload sits between 8 and 32 lanes, so a move off 16
#: could not be measured end to end.
_KERNEL_CROSSOVER_LANES = 16


def _sequential_lanes(
    device: Any, stimuli: np.ndarray, engine: str
) -> np.ndarray:
    """Run lanes one by one against a single device on a pinned engine.

    Lane ``k`` consumes the ``k``-th slice of every random stream,
    exactly like the scalar reference sweep; the pinned engine only
    changes *how* each lane executes, never what it computes.
    """
    from repro.runtime.engine import use_engine

    outputs = np.empty(stimuli.shape)
    with use_engine(engine):
        for lane in range(stimuli.shape[0]):
            outputs[lane] = np.asarray(device(stimuli[lane]), dtype=float)
    return outputs


def _run_lane_chunk(
    spec: SweepSpec,
    levels: Sequence[float],
    context: ShardContext,
    engine: str = "auto",
) -> _ShardResult:
    """Run one contiguous block of sweep lanes; module-level for pickling.

    ``engine`` selects the rung: ``auto`` uses the compiled kernel for
    narrow shards (``<= _KERNEL_CROSSOVER_LANES`` lanes) when the
    design lowers, the batch engine otherwise, and the scalar device
    as the last resort; ``kernel``/``batch``/``scalar`` pin one rung
    (a pinned rung that refuses falls down the remaining ladder).
    All rungs are bit-identical, so ``engine`` is deliberately not
    part of the cache key.
    """
    started = time.perf_counter()
    total = spec.n_samples + spec.settle_samples
    t = np.arange(total) / spec.sample_rate
    carrier = np.sin(2.0 * np.pi * spec.signal_frequency * t)
    amplitudes = [
        spec.full_scale * 10.0 ** (level_db / 20.0) for level_db in levels
    ]
    stimuli = np.empty((len(levels), total))
    for lane, amplitude in enumerate(amplitudes):
        stimuli[lane] = amplitude * carrier

    device = _build_device(spec)
    fast_forward_streams(device, context.lane_offset * total)
    outputs: np.ndarray | None = None
    if engine == "scalar":
        outputs = _sequential_lanes(device, stimuli, "scalar")
        engine_used = "scalar"
    elif engine == "kernel" or (
        engine == "auto" and len(levels) <= _KERNEL_CROSSOVER_LANES
    ):
        if kernel_refusal(device) is None:
            outputs = _sequential_lanes(device, stimuli, "kernel")
            engine_used = "kernel"
    if outputs is None:
        try:
            runner = batch_runner_for(
                device, n_lanes=len(levels), n_steps=total
            )
            outputs = runner.run(stimuli)
            engine_used = "batch"
            from repro.runtime.engine import record_engine_run

            record_engine_run("batch", device, count=len(levels))
        except BatchUnsupported:
            # ``auto`` runs each lane on the kernel when the device
            # lowers there, so the shard is labelled by the rung that ran.
            outputs = _sequential_lanes(device, stimuli, "auto")
            engine_used = "kernel" if kernel_refusal(device) is None else "scalar"

    window = WindowKind(spec.window)
    metrics = []
    for lane in range(outputs.shape[0]):
        spectrum = compute_spectrum(
            outputs[lane, spec.settle_samples :],
            spec.sample_rate,
            window_kind=window,
        )
        metrics.append(
            measure_tone(
                spectrum,
                fundamental_frequency=spec.signal_frequency,
                bandwidth=spec.bandwidth,
            )
        )
    return _ShardResult(
        metrics=tuple(metrics),
        wall_s=time.perf_counter() - started,
        engine=engine_used,
    )


def _result_from_metrics(
    spec: SweepSpec, metrics: Sequence[ToneMetrics]
) -> AmplitudeSweepResult:
    """Assemble the scalar-compatible sweep result object."""
    levels = np.asarray(list(spec.levels_db), dtype=float)
    return AmplitudeSweepResult(
        levels_db=levels,
        sndr_db=np.array([m.sndr_db for m in metrics]),
        snr_db=np.array([m.snr_db for m in metrics]),
        thd_db=np.array([m.thd_db for m in metrics]),
        metrics=tuple(metrics),
    )


def _metrics_to_arrays(
    metrics: Sequence[ToneMetrics],
) -> dict[str, np.ndarray]:
    return {
        field: np.array([getattr(m, field) for m in metrics], dtype=float)
        for field in _METRIC_FIELDS
    }


def _metrics_from_arrays(
    arrays: dict[str, np.ndarray], n_lanes: int
) -> tuple[ToneMetrics, ...] | None:
    if set(_METRIC_FIELDS) - set(arrays):
        return None
    columns = [np.asarray(arrays[field], dtype=float) for field in _METRIC_FIELDS]
    if any(column.shape != (n_lanes,) for column in columns):
        return None
    return tuple(
        ToneMetrics(*(float(column[lane]) for column in columns))
        for lane in range(n_lanes)
    )


def _absorb_worker_telemetry(
    spec: SweepSpec,
    shards: Sequence[_ShardResult],
    telemetries: Sequence[WorkerTelemetry],
    span: Span | None,
    stream: "EventSink | None" = None,
) -> None:
    """Merge worker snapshots into this process; graft worker spans.

    Snapshots always merge into the current process-wide registry --
    that is the path that keeps cache/engine counters from dying with
    the worker processes.  Span grafting needs a parent, so it only
    happens when the sweep runs under a session; each grafted
    ``shard:<index>`` root is stamped with the shard's engine and
    sample count so the merged tree reads like the old flat records
    but with real worker-side wall time and queue wait.  When the
    session carries a live event stream, the workers' buffered events
    are replayed into it in one wall-clock-sorted pass, so a
    ``--jobs N`` sweep tails a single coherent timeline.
    """
    registry = get_registry()
    worker_events: list[Mapping[str, object]] = []
    for shard, telemetry in zip(shards, telemetries):
        registry.merge(telemetry.instruments)
        worker_events.extend(telemetry.events)
        if span is None:
            continue
        for root in graft_spans(span, telemetry.spans):
            root.attrs["engine"] = shard.engine
            if root.samples is None:
                root.samples = len(shard.metrics) * spec.n_samples
    if stream is not None and worker_events:
        stream.emit_merged(worker_events)


def run_sweep(
    spec: SweepSpec,
    executor: SweepExecutor | None = None,
    cache: ResultCache | None = None,
    telemetry: "TelemetrySession | None" = None,
    engine: str = "auto",
) -> AmplitudeSweepResult:
    """Run an amplitude sweep through the lowered engines.

    Parameters
    ----------
    spec:
        The sweep description (see :func:`sweep_spec_for_design`).
    executor:
        Shard executor; ``None`` runs a single inline shard.
    cache:
        Result cache; a hit skips computation entirely and reconstructs
        the result bit for bit from the stored metric arrays.
    engine:
        Execution rung per shard: ``auto`` (default) picks the compiled
        kernel for narrow shards and the batch engine otherwise;
        ``kernel``/``batch``/``scalar`` pin one rung.  All rungs are
        bit-identical, so the choice does not enter the cache key and a
        cache hit is valid for every engine.
    telemetry:
        Optional session; the sweep is wrapped in a ``sweep`` span with
        the workers' ``shard:<index>`` subtrees grafted under it, which
        existing manifest extractors ignore (they read only
        ``measure``/``device`` spans).  Executor timeout/retry events
        additionally appear as ``event:EXECxxx`` structural spans.

    Whether or not a session is passed, each shard's instrument
    snapshot (cache counters, engine choices, shard timings) is merged
    into the process-wide registry of
    :func:`repro.observability.instruments.get_registry`.

    Raises
    ------
    AnalysisError
        If the spec has no levels.
    """
    if len(spec.levels_db) == 0:
        raise AnalysisError("spec.levels_db must contain at least one level")
    if engine not in ("auto", "scalar", "batch", "kernel"):
        raise AnalysisError(
            f"unknown engine {engine!r}; expected auto, scalar, batch or kernel"
        )
    if executor is None:
        executor = SweepExecutor(jobs=1)

    if cache is not None:
        arrays = cache.load(spec.cache_key())
        if arrays is not None:
            metrics = _metrics_from_arrays(arrays, len(spec.levels_db))
            if metrics is not None:
                if telemetry is not None:
                    with telemetry.span(
                        "sweep",
                        samples=len(spec.levels_db) * spec.n_samples,
                        design=spec.design,
                        cache="hit",
                    ):
                        pass
                return _result_from_metrics(spec, metrics)

    worker = functools.partial(_run_lane_chunk, spec, engine=engine)
    levels = list(spec.levels_db)
    if telemetry is not None:
        with telemetry.span(
            "sweep",
            samples=len(levels) * spec.n_samples,
            design=spec.design,
            cache="miss" if cache is not None else "off",
            jobs=executor.jobs,
        ) as span:
            shards, worker_telemetry = executor.map_instrumented(worker, levels)
            _absorb_worker_telemetry(
                spec, shards, worker_telemetry, span, stream=telemetry.stream
            )
            for event in executor.events:
                span.record(
                    f"event:{event.rule}",
                    severity=event.severity.name,
                    source=event.source,
                    message=event.message,
                )
    else:
        shards, worker_telemetry = executor.map_instrumented(worker, levels)
        _absorb_worker_telemetry(spec, shards, worker_telemetry, None)

    metrics = tuple(m for shard in shards for m in shard.metrics)
    if cache is not None:
        cache.store(spec.cache_key(), _metrics_to_arrays(metrics))
    return _result_from_metrics(spec, metrics)
