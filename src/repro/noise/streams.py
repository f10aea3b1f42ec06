"""Chunked random streams for per-sample device loops.

The lowered engines (the compiled kernel tier and the NumPy batch
runners) run a randomised device bit-identically by draining the
device's own streams in bulk.  These streams give
:class:`~repro.deltasigma.quantizer.CurrentQuantizer` metastability,
:class:`~repro.deltasigma.dither.DitheredQuantizer` dither and
:class:`~repro.deltasigma.dac.FeedbackDac` reference noise the same
contract the memory cell's ``_NoiseFeed`` already provides: values are
pre-drawn in fixed-size chunks, ``next()`` and ``take()`` interleave
freely, and ``take(n)`` is bit-identical to ``n`` sequential ``next()``
calls because refills happen at the same chunk boundaries either way.

Slicing convention (documented in ``docs/RUNTIME.md``): a device draws
exactly one stream value per consuming step, so a batch run that
replays ``n_lanes`` sequential runs of ``n_steps`` takes
``n_lanes * n_steps`` values and lane ``k`` reads positions
``[k * n_steps, (k + 1) * n_steps)``; a sweep shard whose first lane is
``k`` takes and discards ``k * n_steps`` values first.
"""

from __future__ import annotations

import numpy as np

__all__ = ["UniformStream", "GaussianStream"]

#: Values pre-drawn per refill; matches the memory cell's noise feed so
#: per-sample cost is an array lookup, not an RNG call.
_STREAM_CHUNK = 1 << 14


class _ChunkedStream:
    """Common chunked-buffer machinery; subclasses define the draw."""

    def __init__(self, seed: int | None) -> None:
        self._rng = np.random.default_rng(seed)
        self._buffer = np.zeros(0)
        self._index = 0

    def _draw(self, count: int) -> np.ndarray:
        raise NotImplementedError

    def _refill(self) -> None:
        self._buffer = self._draw(_STREAM_CHUNK)
        self._index = 0

    def next(self) -> float:
        """Return the next stream value."""
        if self._index >= self._buffer.shape[0]:
            self._refill()
        value = float(self._buffer[self._index])
        self._index += 1
        return value

    def take(self, count: int) -> np.ndarray:
        """Return the next ``count`` values as one array.

        Bit-identical to ``count`` sequential :meth:`next` calls, and
        the stream position advances identically, so scalar and batched
        consumers can be interleaved freely.
        """
        out = np.empty(count)
        filled = 0
        while filled < count:
            if self._index >= self._buffer.shape[0]:
                self._refill()
            available = self._buffer.shape[0] - self._index
            n = min(count - filled, available)
            out[filled : filled + n] = self._buffer[self._index : self._index + n]
            self._index += n
            filled += n
        return out


class UniformStream(_ChunkedStream):
    """Chunked uniform [0, 1) stream (quantiser metastability draws)."""

    def _draw(self, count: int) -> np.ndarray:
        return self._rng.random(count)


class GaussianStream(_ChunkedStream):
    """Chunked zero-mean Gaussian stream (DAC reference noise draws)."""

    def __init__(self, rms: float, seed: int | None) -> None:
        super().__init__(seed)
        self.rms = rms

    def _draw(self, count: int) -> np.ndarray:
        return self._rng.normal(0.0, self.rms, size=count)
