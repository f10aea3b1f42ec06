"""Instrument registries: counters, gauges and histograms.

The runtime layer (cache, executor, kernel and batch engines) accounts
for itself through named instruments held in an
:class:`InstrumentRegistry`:

* a **counter** is a monotonically increasing sum (cache hits, shard
  timeouts, kernel fallbacks);
* a **gauge** is a last-value sample (cache size, effective jobs);
* a **histogram** is a fixed-bucket distribution with a running sum
  and count (cache lookup latency, shard wall time, queue wait).

Every instrument carries *labeled series*: one value per distinct
label set, so ``repro.cache.hits{kind="amplitude-sweep"}`` and
``repro.cache.hits{kind="montecarlo"}`` accumulate independently while
:meth:`InstrumentRegistry.total` still answers "how many hits overall".

Names follow the dotted convention documented in
``docs/OBSERVABILITY.md`` (``repro.<subsystem>.<quantity>``, lowercase,
``[a-z0-9_]`` segments).  Registries serialize to a JSON **snapshot**
(:data:`SNAPSHOT_SCHEMA`) and merge snapshots additively -- counters
and histograms add, gauges take the incoming value.

Code counts into :func:`get_registry`.  Outside any scope that is the
*process registry* (what ``GET /statsz`` serves); :func:`use_registry`
opens a scope that is local to the current thread or task, so a unit
of work -- a report, a sweep chunk, a test -- counts into a registry of
its own while concurrent work counts elsewhere.  A report merges its
scope into the enclosing registry when it ends; a chunk ships its
snapshot to the parent process, which merges it.
"""

from __future__ import annotations

import bisect
import re
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Mapping, Sequence, Union

from repro.errors import ObservabilityError

__all__ = [
    "SNAPSHOT_SCHEMA",
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "Instrument",
    "InstrumentRegistry",
    "get_registry",
    "set_registry",
    "use_registry",
    "reset_registry",
]

#: Schema identifier of a serialized registry snapshot.
SNAPSHOT_SCHEMA = "repro.observability/instrument-snapshot/v1"

#: Default histogram buckets (seconds): sub-millisecond cache lookups
#: through multi-second shard runs, roughly logarithmic.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
)

#: Dotted instrument names: lowercase segments of ``[a-z0-9_]``.
_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$")

#: Canonical in-memory series key: sorted ``(label, value)`` pairs.
LabelKey = tuple[tuple[str, str], ...]


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ObservabilityError(
            f"invalid instrument name {name!r}: expected dotted lowercase "
            "segments like 'repro.cache.hits'"
        )
    return name


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _labels_dict(key: LabelKey) -> dict[str, str]:
    return {k: v for k, v in key}


class Counter:
    """A labeled, monotonically increasing sum."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = _check_name(name)
        self.help = help
        self._series: dict[LabelKey, float] = {}
        self._lock = threading.Lock()

    def inc(self, value: float = 1.0, **labels: object) -> None:
        """Add ``value`` (default 1) to the series selected by labels.

        Raises
        ------
        ObservabilityError
            If ``value`` is negative (counters only go up).
        """
        if value < 0.0:
            raise ObservabilityError(
                f"counter {self.name!r} cannot decrease (got {value!r})"
            )
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + float(value)

    def value(self, **labels: object) -> float:
        """Return one series' value (0 when the series never fired)."""
        return self._series.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Return the sum over every labeled series."""
        with self._lock:
            return float(sum(self._series.values()))

    def series(self) -> list[tuple[LabelKey, float]]:
        """Return ``(labels, value)`` pairs in deterministic order."""
        with self._lock:
            return sorted(self._series.items())


class Gauge:
    """A labeled last-value sample."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = _check_name(name)
        self.help = help
        self._series: dict[LabelKey, float] = {}
        self._lock = threading.Lock()

    def set(self, value: float, **labels: object) -> None:
        """Set the series selected by labels to ``value``."""
        with self._lock:
            self._series[_label_key(labels)] = float(value)

    def value(self, **labels: object) -> float | None:
        """Return one series' value, or None when never set."""
        return self._series.get(_label_key(labels))

    def series(self) -> list[tuple[LabelKey, float]]:
        """Return ``(labels, value)`` pairs in deterministic order."""
        with self._lock:
            return sorted(self._series.items())


class _HistogramSeries:
    """One label set's bucket counts, sum and count."""

    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, n_buckets: int) -> None:
        #: One count per upper bound, plus a trailing overflow bucket.
        self.bucket_counts = [0] * (n_buckets + 1)
        self.sum = 0.0
        self.count = 0


class Histogram:
    """A labeled fixed-bucket distribution.

    Parameters
    ----------
    name:
        Dotted instrument name.
    buckets:
        Strictly increasing upper bounds; an implicit overflow bucket
        catches everything above the last bound.
    help:
        One-line description for expositions.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        help: str = "",
    ) -> None:
        self.name = _check_name(name)
        self.help = help
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise ObservabilityError(
                f"histogram {name!r} buckets must be non-empty and "
                f"strictly increasing, got {buckets!r}"
            )
        self.buckets = bounds
        self._series: dict[LabelKey, _HistogramSeries] = {}
        self._lock = threading.Lock()

    def observe(self, value: float, **labels: object) -> None:
        """Record one observation into the series selected by labels."""
        key = _label_key(labels)
        index = bisect.bisect_left(self.buckets, float(value))
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(len(self.buckets))
            series.bucket_counts[index] += 1
            series.sum += float(value)
            series.count += 1

    def count(self, **labels: object) -> int:
        """Return one series' observation count (0 when absent)."""
        series = self._series.get(_label_key(labels))
        return series.count if series is not None else 0

    def sum(self, **labels: object) -> float:
        """Return one series' observation sum (0 when absent)."""
        series = self._series.get(_label_key(labels))
        return series.sum if series is not None else 0.0

    def total_count(self) -> int:
        """Return the observation count over every labeled series."""
        with self._lock:
            return sum(s.count for s in self._series.values())

    def series(self) -> list[tuple[LabelKey, _HistogramSeries]]:
        """Return ``(labels, series)`` pairs in deterministic order."""
        with self._lock:
            return sorted(self._series.items(), key=lambda item: item[0])


Instrument = Union[Counter, Gauge, Histogram]


class InstrumentRegistry:
    """A named collection of instruments with snapshot/merge semantics.

    Instruments are created on first use (``registry.counter(name)``)
    and are process-local Python objects -- cheap enough that a
    single kernel run pays only a dict lookup and a float add per
    event, nothing per sample.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Instrument] = {}
        self._lock = threading.Lock()

    # -- creation ------------------------------------------------------

    def _get_or_create(
        self, name: str, factory: "type[Counter] | type[Gauge]", help: str
    ) -> Instrument:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, factory):
                    raise ObservabilityError(
                        f"instrument {name!r} is a {existing.kind}, "
                        f"not a {factory.kind}"
                    )
                return existing
            created = factory(name, help=help)
            self._instruments[name] = created
            return created

    def counter(self, name: str, help: str = "") -> Counter:
        """Return the counter named ``name``, creating it on first use.

        Raises
        ------
        ObservabilityError
            If ``name`` already names a gauge or histogram.
        """
        instrument = self._get_or_create(name, Counter, help)
        assert isinstance(instrument, Counter)
        return instrument

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Return the gauge named ``name``, creating it on first use."""
        instrument = self._get_or_create(name, Gauge, help)
        assert isinstance(instrument, Gauge)
        return instrument

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        help: str = "",
    ) -> Histogram:
        """Return the histogram named ``name``, creating it on first use.

        Raises
        ------
        ObservabilityError
            If ``name`` names a non-histogram, or an existing histogram
            with different buckets.
        """
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, Histogram):
                    raise ObservabilityError(
                        f"instrument {name!r} is a {existing.kind}, "
                        "not a histogram"
                    )
                if existing.buckets != tuple(float(b) for b in buckets):
                    raise ObservabilityError(
                        f"histogram {name!r} already registered with "
                        f"buckets {existing.buckets!r}"
                    )
                return existing
            created = Histogram(name, buckets=buckets, help=help)
            self._instruments[name] = created
            return created

    # -- access --------------------------------------------------------

    def get(self, name: str) -> Instrument | None:
        """Return the instrument named ``name``, or None."""
        return self._instruments.get(name)

    def instruments(self) -> list[Instrument]:
        """Return every instrument, sorted by name."""
        with self._lock:
            return [
                self._instruments[name] for name in sorted(self._instruments)
            ]

    def total(self, name: str) -> float:
        """Return a counter's sum over all its series (0 when absent).

        Raises
        ------
        ObservabilityError
            If ``name`` names a non-counter instrument.
        """
        instrument = self._instruments.get(name)
        if instrument is None:
            return 0.0
        if not isinstance(instrument, Counter):
            raise ObservabilityError(
                f"total() needs a counter; {name!r} is a {instrument.kind}"
            )
        return instrument.total()

    # -- snapshot / merge ----------------------------------------------

    def snapshot(self) -> dict[str, object]:
        """Return the registry as a JSON-ready snapshot document."""
        instruments: dict[str, object] = {}
        for instrument in self.instruments():
            entry: dict[str, object] = {
                "kind": instrument.kind,
                "help": instrument.help,
            }
            if isinstance(instrument, Histogram):
                entry["buckets"] = list(instrument.buckets)
                entry["series"] = [
                    {
                        "labels": _labels_dict(key),
                        "count": series.count,
                        "sum": series.sum,
                        "bucket_counts": list(series.bucket_counts),
                    }
                    for key, series in instrument.series()
                ]
            else:
                entry["series"] = [
                    {"labels": _labels_dict(key), "value": value}
                    for key, value in instrument.series()
                ]
            instruments[instrument.name] = entry
        return {"schema": SNAPSHOT_SCHEMA, "instruments": instruments}

    def merge(self, snapshot: Mapping[str, object]) -> None:
        """Fold a snapshot into this registry.

        Counters and histograms add; gauges take the incoming value.
        This is the cross-process aggregation path: a worker snapshots
        its private registry and the parent merges it.

        Raises
        ------
        ObservabilityError
            If the snapshot is malformed, or an instrument collides
            with a different kind or bucket layout.
        """
        for name, entry in _snapshot_instruments(snapshot):
            kind = entry.get("kind")
            series = entry.get("series")
            help_text = str(entry.get("help", ""))
            if not isinstance(series, list):
                raise ObservabilityError(
                    f"snapshot instrument {name!r} has no series list"
                )
            if kind == "counter":
                counter = self.counter(name, help=help_text)
                for item in series:
                    labels, value = _scalar_series_item(name, item)
                    counter.inc(value, **labels)
            elif kind == "gauge":
                gauge = self.gauge(name, help=help_text)
                for item in series:
                    labels, value = _scalar_series_item(name, item)
                    gauge.set(value, **labels)
            elif kind == "histogram":
                buckets = entry.get("buckets")
                if not isinstance(buckets, list):
                    raise ObservabilityError(
                        f"snapshot histogram {name!r} has no buckets"
                    )
                histogram = self.histogram(name, buckets=buckets, help=help_text)
                for item in series:
                    self._merge_histogram_series(histogram, name, item)
            else:
                raise ObservabilityError(
                    f"snapshot instrument {name!r} has unknown kind {kind!r}"
                )

    @staticmethod
    def _merge_histogram_series(
        histogram: Histogram, name: str, item: object
    ) -> None:
        if not isinstance(item, dict):
            raise ObservabilityError(
                f"snapshot histogram {name!r} series entry is not an object"
            )
        labels = item.get("labels")
        counts = item.get("bucket_counts")
        if not isinstance(labels, dict) or not isinstance(counts, list):
            raise ObservabilityError(
                f"snapshot histogram {name!r} series entry is malformed"
            )
        if len(counts) != len(histogram.buckets) + 1:
            raise ObservabilityError(
                f"snapshot histogram {name!r} has {len(counts)} bucket "
                f"counts, expected {len(histogram.buckets) + 1}"
            )
        key = _label_key(labels)
        with histogram._lock:
            series = histogram._series.get(key)
            if series is None:
                series = histogram._series[key] = _HistogramSeries(
                    len(histogram.buckets)
                )
            for index, count in enumerate(counts):
                series.bucket_counts[index] += int(count)
            series.sum += float(item.get("sum", 0.0))
            series.count += int(item.get("count", 0))

    # -- exposition ----------------------------------------------------

    def render_table(self, title: str = "instruments") -> str:
        """Return every series as a paper-style text table."""
        from repro.reporting.tables import render_table

        rows: list[tuple[str, str, str, str]] = []
        for instrument in self.instruments():
            if isinstance(instrument, Histogram):
                for key, series in instrument.series():
                    mean = series.sum / series.count if series.count else 0.0
                    rows.append(
                        (
                            instrument.name,
                            instrument.kind,
                            _format_labels(key),
                            f"n={series.count} mean={mean:.3g}s",
                        )
                    )
            else:
                for key, value in instrument.series():
                    rows.append(
                        (
                            instrument.name,
                            instrument.kind,
                            _format_labels(key),
                            f"{value:g}",
                        )
                    )
        if not rows:
            rows = [("-", "-", "-", "no instruments recorded")]
        return render_table(
            title, ("instrument", "kind", "labels", "value"), rows
        )

    def to_prometheus_text(self) -> str:
        """Return the registry in Prometheus text exposition format.

        Dotted names become underscore-joined metric names; histogram
        buckets are cumulative with the conventional ``le`` label.
        """
        lines: list[str] = []
        for instrument in self.instruments():
            metric = instrument.name.replace(".", "_")
            if instrument.help:
                lines.append(f"# HELP {metric} {instrument.help}")
            lines.append(f"# TYPE {metric} {instrument.kind}")
            if isinstance(instrument, Histogram):
                for key, series in instrument.series():
                    cumulative = 0
                    for bound, count in zip(
                        instrument.buckets, series.bucket_counts
                    ):
                        cumulative += count
                        labels = _prom_labels(key, le=f"{bound:g}")
                        lines.append(f"{metric}_bucket{labels} {cumulative}")
                    labels = _prom_labels(key, le="+Inf")
                    lines.append(f"{metric}_bucket{labels} {series.count}")
                    lines.append(
                        f"{metric}_sum{_prom_labels(key)} {series.sum:g}"
                    )
                    lines.append(
                        f"{metric}_count{_prom_labels(key)} {series.count}"
                    )
            else:
                for key, value in instrument.series():
                    lines.append(f"{metric}{_prom_labels(key)} {value:g}")
        return "\n".join(lines) + ("\n" if lines else "")


def _snapshot_instruments(
    snapshot: Mapping[str, object],
) -> list[tuple[str, dict[str, object]]]:
    """Validate a snapshot's envelope and return its instrument items."""
    schema = snapshot.get("schema")
    if schema != SNAPSHOT_SCHEMA:
        raise ObservabilityError(
            f"not an instrument snapshot: schema {schema!r}, "
            f"expected {SNAPSHOT_SCHEMA!r}"
        )
    instruments = snapshot.get("instruments")
    if not isinstance(instruments, dict):
        raise ObservabilityError("snapshot has no instruments mapping")
    out: list[tuple[str, dict[str, object]]] = []
    for name in sorted(instruments):
        entry = instruments[name]
        if not isinstance(entry, dict):
            raise ObservabilityError(
                f"snapshot instrument {name!r} is not an object"
            )
        out.append((str(name), entry))
    return out


def _scalar_series_item(name: str, item: object) -> tuple[dict[str, str], float]:
    if not isinstance(item, dict):
        raise ObservabilityError(
            f"snapshot instrument {name!r} series entry is not an object"
        )
    labels = item.get("labels")
    value = item.get("value")
    if not isinstance(labels, dict) or not isinstance(value, (int, float)):
        raise ObservabilityError(
            f"snapshot instrument {name!r} series entry is malformed"
        )
    return {str(k): str(v) for k, v in labels.items()}, float(value)


def _format_labels(key: LabelKey) -> str:
    if not key:
        return "-"
    return ",".join(f"{k}={v}" for k, v in key)


def _prom_labels(key: LabelKey, **extra: str) -> str:
    pairs = list(key) + sorted(extra.items())
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_prom_escape(v)}"' for k, v in pairs)
    return "{" + body + "}"


def _prom_escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


# -- the process registry and context-local scopes ---------------------

_process_registry = InstrumentRegistry()

#: The registry of the innermost :func:`use_registry` block in this
#: context; None outside every block.  A new thread starts outside.
_scope: ContextVar[InstrumentRegistry | None] = ContextVar(
    "repro_instrument_scope", default=None
)


def get_registry() -> InstrumentRegistry:
    """Return the registry this context counts into.

    That is the registry of the innermost :func:`use_registry` block
    open in this thread (or task); outside every block, and in every
    new thread, it is the process registry.
    """
    scoped = _scope.get()
    return _process_registry if scoped is None else scoped


def set_registry(registry: InstrumentRegistry) -> InstrumentRegistry:
    """Replace the process registry; return the previous one.

    Scopes open in any context keep their own registries.
    """
    global _process_registry
    previous = _process_registry
    _process_registry = registry
    return previous


@contextmanager
def use_registry(registry: InstrumentRegistry) -> Iterator[InstrumentRegistry]:
    """Count into ``registry`` in this context for the block.

    The scope is context-local: other threads keep counting where they
    did, and the block's exit restores this context's previous
    registry however the scopes of other threads interleave.  Nothing
    is merged on exit; a caller that wants its counts to reach the
    enclosing registry merges ``registry.snapshot()`` itself.
    """
    token = _scope.set(registry)
    try:
        yield registry
    finally:
        _scope.reset(token)


def reset_registry() -> InstrumentRegistry:
    """Install and return a fresh process registry (test hook)."""
    fresh = InstrumentRegistry()
    set_registry(fresh)
    return fresh
