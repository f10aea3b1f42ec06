"""FFT window functions with their metrological properties.

The paper performs "a 64K-point FFT using a blackman window" for every
spectral measurement, so the Blackman window is the reference window of
this reproduction.  Correct SNR/THD extraction from a windowed
periodogram requires two window constants:

* the *coherent gain* (mean of the window), which scales tone
  amplitudes, and
* the *equivalent noise bandwidth* (ENBW, in bins), which scales noise
  power integrated across bins.

Both are computed numerically from the window samples, so any window
added later is automatically handled correctly, and once per window:
:func:`make_window` returns one shared, read-only window per kind and
length, so a sweep's spectra do not rebuild it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from repro.errors import AnalysisError

__all__ = ["WindowKind", "Window", "make_window"]


class WindowKind(enum.Enum):
    """Supported window shapes."""

    RECTANGULAR = "rectangular"
    HANN = "hann"
    BLACKMAN = "blackman"


@dataclass(frozen=True)
class Window:
    """A concrete window: samples plus derived constants.

    Attributes
    ----------
    kind:
        Which shape this window is.
    samples:
        The window samples (length N).
    """

    kind: WindowKind
    samples: np.ndarray

    @property
    def length(self) -> int:
        """Return the window length in samples."""
        return int(self.samples.shape[0])

    @cached_property
    def coherent_gain(self) -> float:
        """Return the coherent (amplitude) gain: the mean of the window."""
        return float(np.mean(self.samples))

    @cached_property
    def enbw_bins(self) -> float:
        """Return the equivalent noise bandwidth in FFT bins.

        ``N * sum(w^2) / sum(w)^2``; 1.0 for rectangular, about 1.73 for
        Blackman.
        """
        total = float(np.sum(self.samples))
        if total == 0.0:
            raise AnalysisError("window has zero sum; ENBW undefined")
        return self.length * float(np.sum(self.samples**2)) / total**2

    @property
    def main_lobe_bins(self) -> int:
        """Return the half-width of the main lobe in bins.

        Used when integrating a tone's power: a Blackman window spreads
        a coherent tone over +/-3 bins; Hann +/-2; rectangular (with
        coherent sampling) occupies a single bin but we keep one guard
        bin for numerical safety.
        """
        if self.kind is WindowKind.BLACKMAN:
            return 3
        if self.kind is WindowKind.HANN:
            return 2
        return 1


@lru_cache(maxsize=8)
def make_window(kind: WindowKind, length: int) -> Window:
    """Return the window of the given kind and length.

    Windows are cached per (kind, length) and shared, so the samples
    are read-only.

    Parameters
    ----------
    kind:
        Window shape.
    length:
        Number of samples; must be at least 8 for the lobe bookkeeping
        to make sense.

    Raises
    ------
    AnalysisError
        If ``length`` is too small.
    """
    if length < 8:
        raise AnalysisError(f"window length must be >= 8, got {length!r}")
    if kind is WindowKind.RECTANGULAR:
        samples = np.ones(length)
    elif kind is WindowKind.HANN:
        samples = np.hanning(length)
    elif kind is WindowKind.BLACKMAN:
        samples = np.blackman(length)
    else:  # pragma: no cover - exhaustive enum
        raise AnalysisError(f"unsupported window kind {kind!r}")
    samples.flags.writeable = False
    return Window(kind=kind, samples=samples)
