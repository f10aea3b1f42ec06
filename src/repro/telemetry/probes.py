"""Named signal probes with streaming statistics.

A probe attaches to one internal current of a device -- a memory
cell's output, an integrator state, the CMFF residual common mode --
and accumulates *streaming* statistics: count, min/max, mean, RMS,
swing against a full-scale reference and clip counts against a limit.
No waveform is stored, so a probe costs a handful of floats regardless
of run length; the 64K-sample benches can carry one probe per node for
the price of a dataclass.

Probes accept samples one at a time (:meth:`SignalProbe.observe`, used
inside per-sample device loops behind an ``is not None`` guard) or as
whole arrays (:meth:`SignalProbe.observe_array`, the cheap batch path
used after a device run when the trace already exists).  Both paths
produce identical statistics.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import TelemetryError

__all__ = ["SignalProbe"]


class SignalProbe:
    """Streaming statistics over one observed signal.

    Parameters
    ----------
    name:
        Probe name, unique within a session (``int1.state``, ...).
    full_scale:
        Reference amplitude in amperes for the swing statistic; None
        disables swing reporting.
    clip_limit:
        Absolute level in amperes beyond which a sample counts as
        clipped (for a class-AB cell, the edge of the modeled
        modulation range); None disables clip counting.
    meta:
        Free-form metadata the dynamic-rule monitor keys on
        (``kind``, ``quiescent_current``, ``supply_voltage``, ...).
    """

    __slots__ = (
        "name",
        "full_scale",
        "clip_limit",
        "meta",
        "count",
        "clip_count",
        "first_clip_index",
        "_min",
        "_max",
        "_sum",
        "_sum_squares",
    )

    def __init__(
        self,
        name: str,
        full_scale: float | None = None,
        clip_limit: float | None = None,
        **meta: object,
    ) -> None:
        if full_scale is not None and full_scale <= 0.0:
            raise TelemetryError(
                f"probe {name!r}: full_scale must be positive, got {full_scale!r}"
            )
        if clip_limit is not None and clip_limit <= 0.0:
            raise TelemetryError(
                f"probe {name!r}: clip_limit must be positive, got {clip_limit!r}"
            )
        self.name = name
        self.full_scale = full_scale
        self.clip_limit = clip_limit
        self.meta: dict[str, object] = meta
        self.count = 0
        self.clip_count = 0
        #: Index (in observation order) of the first clipped sample,
        #: or None when nothing has clipped.
        self.first_clip_index: int | None = None
        self._min = math.inf
        self._max = -math.inf
        self._sum = 0.0
        self._sum_squares = 0.0

    def __repr__(self) -> str:
        return f"SignalProbe(name={self.name!r}, count={self.count})"

    def observe(self, value: float) -> None:
        """Fold one sample into the statistics."""
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        self._sum += value
        self._sum_squares += value * value
        if self.clip_limit is not None and abs(value) > self.clip_limit:
            if self.first_clip_index is None:
                self.first_clip_index = self.count
            self.clip_count += 1
        self.count += 1

    def observe_array(self, values: np.ndarray) -> None:
        """Fold a whole array of samples into the statistics at once.

        Raises
        ------
        TelemetryError
            If the array is not 1-D.
        """
        data = np.asarray(values, dtype=float)
        if data.ndim != 1:
            raise TelemetryError(
                f"probe {self.name!r}: observed array must be 1-D, "
                f"got shape {data.shape}"
            )
        if data.shape[0] == 0:
            return
        self._min = min(self._min, float(np.min(data)))
        self._max = max(self._max, float(np.max(data)))
        self._sum += float(np.sum(data))
        # Not np.dot: BLAS may split the sum across threads, so its
        # bits would depend on the thread count.
        self._sum_squares += float(np.sum(data * data))
        if self.clip_limit is not None:
            clipped = np.abs(data) > self.clip_limit
            n_clipped = int(np.count_nonzero(clipped))
            if n_clipped:
                if self.first_clip_index is None:
                    self.first_clip_index = self.count + int(np.argmax(clipped))
                self.clip_count += n_clipped
        self.count += data.shape[0]

    def merge(self, other: "SignalProbe") -> None:
        """Fold another probe's accumulated statistics into this one.

        The parallel sweep runner observes signals on worker-local
        probes (a :class:`SignalProbe` pickles cleanly) and absorbs
        them into the session probe afterwards; merging in worker
        submission order yields the same statistics as observing the
        concatenated streams directly.  ``other``'s clip index is
        shifted by this probe's current count so ``first_clip_index``
        keeps indexing the merged observation order.
        """
        if other.count == 0:
            return
        if other.first_clip_index is not None:
            if self.first_clip_index is None:
                self.first_clip_index = self.count + other.first_clip_index
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        self._sum += other._sum
        self._sum_squares += other._sum_squares
        self.clip_count += other.clip_count
        self.count += other.count

    @property
    def minimum(self) -> float:
        """Return the smallest observed sample (NaN before any sample)."""
        return self._min if self.count else math.nan

    @property
    def maximum(self) -> float:
        """Return the largest observed sample (NaN before any sample)."""
        return self._max if self.count else math.nan

    @property
    def mean(self) -> float:
        """Return the running mean (NaN before any sample)."""
        return self._sum / self.count if self.count else math.nan

    @property
    def rms(self) -> float:
        """Return the running RMS (NaN before any sample)."""
        if not self.count:
            return math.nan
        return math.sqrt(self._sum_squares / self.count)

    @property
    def peak(self) -> float:
        """Return the largest absolute excursion (0.0 before any sample)."""
        if not self.count:
            return 0.0
        return max(abs(self._min), abs(self._max))

    @property
    def swing_fraction(self) -> float | None:
        """Return peak over full scale, or None without a reference."""
        if self.full_scale is None:
            return None
        return self.peak / self.full_scale

    @property
    def clip_fraction(self) -> float:
        """Return the fraction of observed samples beyond the clip limit."""
        if not self.count:
            return 0.0
        return self.clip_count / self.count

    def as_record(self) -> dict[str, object]:
        """Return the probe state as a flat JSON-serialisable record."""
        return {
            "name": self.name,
            "count": self.count,
            "min": None if not self.count else self.minimum,
            "max": None if not self.count else self.maximum,
            "mean": None if not self.count else self.mean,
            "rms": None if not self.count else self.rms,
            "peak": self.peak,
            "full_scale": self.full_scale,
            "swing_fraction": self.swing_fraction,
            "clip_limit": self.clip_limit,
            "clip_count": self.clip_count,
            "clip_fraction": self.clip_fraction,
            "first_clip_index": self.first_clip_index,
            "meta": dict(self.meta),
        }
