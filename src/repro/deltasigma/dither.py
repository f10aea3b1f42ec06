"""Dither injection for idle-tone suppression.

Low-order 1-bit delta-sigma modulators produce *idle tones* for DC and
slowly varying inputs: the quantisation error is strongly correlated
with the input and concentrates in discrete tones that can land in
band (audible "birdies" in audio converters).  The standard remedy is
to inject a small pseudo-random dither at the quantiser input, inside
the loop, where the noise shaping attenuates its in-band contribution
by the full NTF.

This module provides a dithered quantiser wrapper compatible with both
modulator topologies, plus an idle-tone metric so the benefit can be
asserted quantitatively.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AnalysisError, ConfigurationError
from repro.deltasigma.quantizer import CurrentQuantizer
from repro.noise.streams import GaussianStream

__all__ = ["DitheredQuantizer", "idle_tone_power_ratio"]


class DitheredQuantizer(CurrentQuantizer):
    """A current quantiser with additive pseudo-random dither.

    The dither adds to the comparator input *inside the loop*, so the
    decisions decorrelate from the input while the injected noise is
    shaped out of band like quantisation noise.

    Parameters
    ----------
    The dither draws from a chunked
    :class:`~repro.noise.streams.GaussianStream` (one draw per decision
    whenever ``dither_rms > 0``), so the stream position is a pure
    function of the step count and the lowered engines (batch, kernel)
    can drain it exactly like the metastability stream.

    Parameters
    ----------
    dither_rms:
        RMS amplitude of the Gaussian dither in amperes.  A good
        starting point is a few percent of the quantiser full scale.
    seed:
        Seed for the dither generator.
    offset, hysteresis, metastability_band:
        Inherited comparator imperfections (see
        :class:`~repro.deltasigma.quantizer.CurrentQuantizer`).
    """

    def __init__(
        self,
        dither_rms: float,
        seed: int | None = None,
        offset: float = 0.0,
        hysteresis: float = 0.0,
        metastability_band: float = 0.0,
    ) -> None:
        super().__init__(
            offset=offset,
            hysteresis=hysteresis,
            metastability_band=metastability_band,
            seed=seed,
        )
        if dither_rms < 0.0:
            raise ConfigurationError(
                f"dither_rms must be non-negative, got {dither_rms!r}"
            )
        self.dither_rms = dither_rms
        self._dither = GaussianStream(
            dither_rms, None if seed is None else seed + 1
        )

    def decide(self, input_current: float) -> int:
        """Return the dithered decision for one input sample."""
        dithered = input_current
        if self.dither_rms > 0.0:
            dithered += self._dither.next()
        return super().decide(dithered)


def idle_tone_power_ratio(
    bitstream: np.ndarray,
    sample_rate: float,
    band_low: float,
    band_high: float,
    whiten_order: int = 2,
) -> float:
    """Return the peak-tone-to-median power ratio inside a band.

    A tonal spectrum has a large peak-bin-to-median-bin ratio; a
    well-dithered (noise-like) one sits near the chi-squared
    expectation of a few tens.  Before forming the ratio the band is
    *whitened* by the modulator's noise-shaping magnitude
    ``|2 sin(pi f / fs)|^(2 L)`` so the NTF's steep slope is not
    mistaken for tonality -- set ``whiten_order=0`` for an unshaped
    stream.

    Raises
    ------
    AnalysisError
        If the band is empty or the stream too short.
    """
    from repro.analysis.spectrum import compute_spectrum

    if whiten_order < 0:
        raise ConfigurationError(
            f"whiten_order must be non-negative, got {whiten_order!r}"
        )
    data = np.asarray(bitstream, dtype=float)
    if data.ndim != 1 or data.shape[0] < 256:
        raise AnalysisError(
            f"bitstream must be 1-D with >= 256 samples, got shape {data.shape}"
        )
    spectrum = compute_spectrum(data, sample_rate)
    low = spectrum.bin_of(band_low)
    high = spectrum.bin_of(band_high)
    if high - low < 8:
        raise AnalysisError(
            f"band [{band_low}, {band_high}] spans fewer than 8 bins"
        )
    band = spectrum.power[low : high + 1].copy()
    if whiten_order > 0:
        freqs = spectrum.frequencies[low : high + 1]
        shaping = (2.0 * np.sin(np.pi * freqs / sample_rate)) ** (2 * whiten_order)
        band /= np.maximum(shaping, 1e-30)
    median = float(np.median(band))
    if median <= 0.0:
        raise AnalysisError("band median power is zero; cannot form ratio")
    return float(np.max(band)) / median
