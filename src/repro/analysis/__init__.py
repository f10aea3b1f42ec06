"""Spectral analysis and converter metrology.

Everything the paper measures -- THD, SNR, SNDR, dynamic range -- comes
out of one pipeline: a 64K-point FFT with a Blackman window followed by
tone/harmonic/noise binning.  This subpackage reimplements that
pipeline so the benches measure the simulated circuits exactly the way
the authors measured the chip.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.analysis.windows import Window, WindowKind, make_window
    from repro.analysis.spectrum import Spectrum, compute_spectrum
    from repro.analysis.metrics import (
        ToneMetrics,
        measure_tone,
        sndr_db,
        snr_db,
        thd_db,
    )
    from repro.analysis.sweeps import AmplitudeSweepResult, run_amplitude_sweep
    from repro.analysis.fitting import (
        dynamic_range_from_sweep,
        linear_fit_through_noise,
    )
    from repro.analysis.linearity import LinearityResult, code_density_test

_EXPORTS = {
    "repro.analysis.windows": ("Window", "WindowKind", "make_window"),
    "repro.analysis.spectrum": ("Spectrum", "compute_spectrum"),
    "repro.analysis.metrics": (
        "ToneMetrics",
        "measure_tone",
        "snr_db",
        "thd_db",
        "sndr_db",
    ),
    "repro.analysis.sweeps": ("AmplitudeSweepResult", "run_amplitude_sweep"),
    "repro.analysis.fitting": ("dynamic_range_from_sweep", "linear_fit_through_noise"),
    "repro.analysis.linearity": ("LinearityResult", "code_density_test"),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
