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
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.analysis.metrics import ToneMetrics, measure_tone
from repro.analysis.spectrum import compute_spectrum
from repro.analysis.sweeps import AmplitudeSweepResult
from repro.analysis.windows import WindowKind
from repro.config import MODULATOR_FULL_SCALE
from repro.designs import check_knobs, resolve
from repro.errors import AnalysisError, ConfigurationError
from repro.runtime.batch import (
    BatchUnsupported,
    batch_runner_for,
    fast_forward_streams,
)
from repro.runtime.kernels import kernel_refusal
from repro.observability.instruments import Counter, InstrumentRegistry
from repro.runtime.cache import ResultCache
from repro.runtime.executor import ShardContext, ShardRun, SweepExecutor
from repro.telemetry.spans import Span
from repro.systems.stimulus import coherent_frequency

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observability.live import EventStream
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

#: Shortest sweep lane, in analysed samples: below 8K the 2 kHz tone
#: collides with the Blackman window's DC lobe.
MIN_LANE_SAMPLES = 1 << 13

#: Highest sweep level, in dB re full scale.  Every grid tops out at
#: 0 dBFS, and +40 dBFS (100 times full scale) already drives every
#: design deep into overload.  Far above it the run stops measuring
#: anything: at +5000 dB the stimulus overflows the store law and the
#: tone "measures" a signal power of 2.7e-54.
MAX_LEVEL_DB = 40.0

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

    def __post_init__(self) -> None:
        # Every spec -- a CLI sweep, a service job, a worker payload --
        # is built here, so a field, level or knob that is not usable
        # is refused once for all of them.  Scalars are checked, never
        # coerced, so a valid spec keeps its cache key and digest.
        check_knobs(self.noise_scale, self.mismatch)
        entry = resolve(self.design)
        entry.point  # refuses unknown and ERC-only designs
        # One spelling per design, so an alias and its name share one
        # cache key and one service digest.
        object.__setattr__(self, "design", entry.name)
        for name, floor in (("n_samples", 16), ("settle_samples", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < floor:
                raise ConfigurationError(
                    f"{name} must be an integer >= {floor}, got {value!r}"
                )
        for name in ("full_scale", "signal_frequency", "sample_rate", "bandwidth"):
            value = getattr(self, name)
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or not 0.0 < value < math.inf
            ):
                raise ConfigurationError(
                    f"{name} must be a positive finite number, got {value!r}"
                )
        if self.window not in {kind.value for kind in WindowKind}:
            raise ConfigurationError(
                f"window must be one of {[kind.value for kind in WindowKind]}, "
                f"got {self.window!r}"
            )
        try:
            levels = tuple(float(level) for level in self.levels_db)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"levels_db must be numbers, got {self.levels_db!r}"
            ) from exc
        if not levels:
            raise ConfigurationError("levels_db must hold at least one level")
        if not all(math.isfinite(level) for level in levels):
            raise ConfigurationError(
                f"levels_db must be finite, got {list(levels)!r}"
            )
        if max(levels) > MAX_LEVEL_DB:
            raise ConfigurationError(
                f"levels_db must be at most {MAX_LEVEL_DB:g} dBFS, got {max(levels)!r}"
            )
        object.__setattr__(self, "levels_db", levels)

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
    half the main FFT length (at least :data:`MIN_LANE_SAMPLES`), a
    bin-centred tone, 256 settle samples.
    """
    entry = resolve(design)
    point = entry.point
    sweep_n = max(MIN_LANE_SAMPLES, n_samples // 2)
    return SweepSpec(
        design=entry.name,
        levels_db=tuple(levels_db),
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
    if not isinstance(raw, Mapping):
        raise ConfigurationError(
            f"sweep spec must be a mapping of SweepSpec fields, got {type(raw).__name__}"
        )
    try:
        return SweepSpec(**raw)
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
    engine: str


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
    return _ShardResult(metrics=tuple(metrics), engine=engine_used)


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


def _record_shards(
    spec: SweepSpec,
    shards: Sequence[_ShardResult],
    runs: Sequence[ShardRun],
    span: Span,
    stream: "EventStream | None",
) -> None:
    """Attach one ``shard:<index>`` span per chunk; replay its events.

    The executor already merged each chunk's registry snapshot; what
    is left is the timeline.  Each span carries the chunk's pid, lane
    accounting, queue wait, rung and worker-side wall time.  With a
    live stream, each chunk's ``span_start``/``span_finish`` and
    ``instruments`` (its counter totals, dots as underscores) are
    emitted in one pass sorted by the chunks' wall clocks, so a
    ``--jobs N`` sweep tails a single ordered timeline.
    """
    events: list[tuple[float, str, str, dict[str, object]]] = []
    for shard, run in zip(shards, runs):
        context = run.context
        name = f"shard:{context.shard_index}"
        span.record(
            name,
            samples=len(shard.metrics) * spec.n_samples,
            duration_s=run.duration_s,
            pid=run.pid,
            lane_offset=context.lane_offset,
            n_lanes=context.n_lanes,
            queue_wait_ms=round(run.queue_wait_s * 1e3, 3),
            engine=shard.engine,
        )
        if stream is None:
            continue
        chunk = InstrumentRegistry()
        chunk.merge(run.instruments)
        counters: dict[str, object] = {
            instrument.name.replace(".", "_"): instrument.total()
            for instrument in chunk.instruments()
            if isinstance(instrument, Counter)
        }
        finished = run.started_unix + run.duration_s
        events += [
            (
                run.started_unix,
                "span_start",
                name,
                {
                    "pid": run.pid,
                    "lane_offset": context.lane_offset,
                    "n_lanes": context.n_lanes,
                },
            ),
            (finished, "span_finish", name, {"pid": run.pid, "duration_s": run.duration_s}),
            (finished, "instruments", name, {"pid": run.pid, **counters}),
        ]
    if stream is not None:
        for t, event, name, fields in sorted(events, key=lambda item: item[0]):
            stream.emit(event, name, t=t, **fields)


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
        one childless ``shard:<index>`` span per chunk under it, which
        existing manifest extractors ignore (they read only
        ``measure``/``device`` spans).  Executor timeout/retry events
        additionally appear as ``event:EXECxxx`` structural spans.

    Whether or not a session is passed, each shard's instrument
    snapshot (cache counters, engine choices, shard timings) is merged
    into the caller's registry,
    :func:`repro.observability.instruments.get_registry`.

    Raises
    ------
    AnalysisError
        If the engine is unknown.
    """
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
            shards = executor.map(worker, levels)
            _record_shards(spec, shards, executor.shards, span, telemetry.stream)
            for event in executor.events:
                span.record(
                    f"event:{event.rule}",
                    severity=event.severity.name,
                    source=event.source,
                    message=event.message,
                )
    else:
        shards = executor.map(worker, levels)

    metrics = tuple(m for shard in shards for m in shard.metrics)
    if cache is not None:
        cache.store(spec.cache_key(), _metrics_to_arrays(metrics))
    return _result_from_metrics(spec, metrics)
