"""Request catalog, output digests and the committed references.

Every workload draws its inputs from the fixed catalog below, so any
seed can be checked against ``references.json``.  A digest covers what
the program computes, never what the host measured:

* a run manifest: each metric record's name, value and unit, except the
  host-time records ``wall_s`` and ``samples_per_s`` (provenance and the
  ``instruments`` block are left out too);
* a sweep: the five ``ToneMetrics`` fields of every lane.

Values enter the digest at ten significant digits, so a last-ulp
difference between NumPy builds does not read as a wrong answer.

Regenerate the references (about two minutes) after a change that is
meant to alter results::

    PYTHONPATH=src python3 perfbench/check.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from collections.abc import Iterable, Mapping
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES_PATH = os.path.join(HERE, "references.json")

#: The four runnable trace designs.
DESIGNS: tuple[str, ...] = ("chopper", "delay-line", "modulator1", "modulator2")

#: ``repro report --fast`` size and the service default.
REPORT_SAMPLES = 1 << 14

#: Report sizes that reuse the 8K sweep a 16K report stored (the sweep
#: runs at ``max(8192, n // 2)`` samples).  8192 itself is never drawn:
#: there every modulator reports the +200 dB clamp.
SHARED_SAMPLES: tuple[int, ...] = (12288, 14336)

#: Thermal-noise multipliers the service catalog draws from.
NOISE_SCALES: tuple[float, ...] = tuple(round(0.5 + 0.05 * i, 2) for i in range(31))

#: ``n_samples`` handed to ``sweep_spec_for_design``: 16K-sample lanes.
SWEEP_SAMPLES = 1 << 15

#: The Fig. 7 grid: 7 lanes, one shard on the compiled-kernel rung.
NARROW_LEVELS: tuple[float, ...] = (-50.0, -40.0, -30.0, -20.0, -10.0, -6.0, 0.0)

#: ``linspace(-50, 0, 33)``: 33 lanes, one shard on the NumPy batch rung.
WIDE_LEVELS: tuple[float, ...] = tuple(-50.0 + 50.0 * i / 32 for i in range(33))

SWEEP_GRIDS: dict[str, tuple[float, ...]] = {
    "sweep-narrow": NARROW_LEVELS,
    "sweep-wide": WIDE_LEVELS,
}

#: Records that carry host time, not a computed result.
HOST_TIME_RECORDS = frozenset({"wall_s", "samples_per_s"})

#: ``analysis.metrics._db`` clamps to this magnitude.
DB_CLAMP = 200.0

#: Table 2's dynamic range of both second-order modulators (dB).
PAPER_DR_DB = 63.0

TONE_FIELDS: tuple[str, ...] = (
    "fundamental_frequency",
    "signal_power",
    "harmonic_power",
    "noise_power",
    "bandwidth",
)


def report_key(design: str, n_samples: int, noise_scale: float) -> str:
    """Return the catalog key of one report configuration."""
    return f"{design}|{n_samples}|{noise_scale:g}"


def _number(value: Any) -> str | None:
    return None if value is None else format(float(value), ".10g")


def _digest(payload: Any) -> str:
    return hashlib.sha256(json.dumps(payload).encode("utf-8")).hexdigest()[:20]


def manifest_digest(manifest: Mapping[str, Any]) -> str:
    """Digest a run manifest's computed metric values."""
    return _digest(
        [
            [record["name"], _number(record["value"]), record["unit"]]
            for record in manifest["metrics"]
            if record["name"] not in HOST_TIME_RECORDS
        ]
    )


def sweep_digest(metrics: Iterable[Any]) -> str:
    """Digest the per-lane ``ToneMetrics`` of a sweep."""
    return _digest(
        [[_number(getattr(lane, field)) for field in TONE_FIELDS] for lane in metrics]
    )


def clamped(manifest: Mapping[str, Any]) -> bool:
    """True when any dB record sits at the +-200 dB clamp."""
    return any(
        record["unit"] == "dB"
        and record["value"] is not None
        and abs(float(record["value"])) >= DB_CLAMP
        for record in manifest["metrics"]
    )


def paper_error_db(manifest: Mapping[str, Any]) -> float:
    """Largest |measured - paper| over the manifest's dB records."""
    return max(
        (
            abs(float(record["value"]) - float(record["paper_value"]))
            for record in manifest["metrics"]
            if record["unit"] == "dB" and record.get("paper_value") is not None
        ),
        default=0.0,
    )


def load_references() -> dict[str, dict[str, str]]:
    """Load the committed reference digests."""
    with open(REFERENCES_PATH) as handle:
        return json.load(handle)


def check_manifest(
    manifest: Mapping[str, Any], expected: str | None
) -> str | None:
    """Return why a manifest is wrong, or None when it checks out."""
    if clamped(manifest):
        return "a dB record sits at the 200 dB clamp"
    if expected is None:
        return "no reference digest for this configuration"
    if manifest_digest(manifest) != expected:
        return "manifest digest differs from the reference"
    return None


def make_references() -> dict[str, dict[str, str]]:
    """Compute every reference digest in process.

    Reports of one design and noise scale share their sweep through a
    scratch cache, as they do in the service; a cache hit rebuilds the
    sweep bit for bit, so the digests equal those of fresh runs.
    """
    from repro.metrics.report import build_report
    from repro.runtime.cache import ResultCache
    from repro.runtime.sweeps import run_sweep, sweep_spec_for_design

    references: dict[str, dict[str, str]] = {"report": {}}
    with tempfile.TemporaryDirectory() as scratch:
        cache = ResultCache(scratch)
        for design in DESIGNS:
            for noise_scale in NOISE_SCALES:
                for n_samples in (REPORT_SAMPLES, *SHARED_SAMPLES):
                    manifest = build_report(
                        design,
                        n_samples=n_samples,
                        noise_scale=noise_scale,
                        cache=cache,
                    ).as_dict()
                    if clamped(manifest):
                        raise SystemExit(f"{design} {n_samples} {noise_scale}: clamped")
                    key = report_key(design, n_samples, noise_scale)
                    references["report"][key] = manifest_digest(manifest)
    for workload, levels in SWEEP_GRIDS.items():
        references[workload] = {}
        for design in DESIGNS:
            spec = sweep_spec_for_design(design, n_samples=SWEEP_SAMPLES, levels_db=levels)
            references[workload][design] = sweep_digest(run_sweep(spec).metrics)
    return references


if __name__ == "__main__":
    os.environ["REPRO_KERNEL_JIT"] = "0"
    with open(REFERENCES_PATH, "w") as handle:
        json.dump(make_references(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"references written to {REFERENCES_PATH}", file=sys.stderr)
