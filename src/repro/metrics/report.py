"""Run reports: measure a named design and emit its run manifest.

This is the engine behind ``repro report <design>``: it drives the
design at its paper operating point through a telemetry-instrumented
:class:`~repro.systems.testbench.TestBench`, runs the compact
dynamic-range sweep behind the Table 2 rows, evaluates the power
model, and files everything into a registry whose specs already carry
the paper's reference values -- returning a
:class:`~repro.metrics.manifest.RunManifest` ready to print, write, or
diff against a committed baseline.

Degradation knobs (``noise_scale``, ``mismatch``) rewrite the cell
configuration before the device is built, so a CI job can verify the
regression gate actually fires: doubling the thermal noise drops SNDR
by ~5 dB, far past the 0.75 dB baseline tolerance.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Iterator

import numpy as np

from repro.designs import check_knobs, resolve
from repro.metrics.extractors import (
    delay_line_error_records,
    sweep_records,
    telemetry_event_records,
    throughput_records,
    tone_records,
)
from repro.metrics.manifest import RunManifest, manifest_from_registry
from repro.metrics.provenance import Provenance
from repro.metrics.registry import registry_for
from repro.observability.instruments import (
    InstrumentRegistry,
    get_registry,
    use_registry,
)
from repro.runtime.cache import ResultCache
from repro.runtime.executor import SweepExecutor
from repro.runtime.sweeps import run_sweep, sweep_spec_for_design
from repro.si.memory_cell import MemoryCellConfig
from repro.si.power import ClassKind
from repro.systems.chip import TestChip
from repro.systems.testbench import TestBench
from repro.telemetry.session import TelemetrySession

__all__ = ["build_report"]

#: Input levels of the compact dynamic-range sweep (dB re full scale);
#: the -10 dB cap keeps the fit in the noise-limited linear region.
SWEEP_LEVELS_DB: tuple[float, ...] = (-50.0, -40.0, -30.0, -20.0, -10.0)

#: Modulation index the power model evaluates modulators at.
MODULATOR_POWER_INDEX = 3.0

#: Modulation index the power model evaluates the delay line at.
DELAY_LINE_POWER_INDEX = 4.0


@contextmanager
def _run_scope() -> Iterator[InstrumentRegistry]:
    """Count one run into a registry of its own.

    The manifest embeds this registry, so it says what the run did and
    nothing a concurrent run did.  On exit, however the run ends, the
    counts are merged into the enclosing registry (the process's,
    behind ``/statsz``), so nothing is lost to it.
    """
    instruments = InstrumentRegistry()
    enclosing = get_registry()
    try:
        with use_registry(instruments):
            yield instruments
    finally:
        enclosing.merge(instruments.snapshot())


def build_report(
    design: str,
    n_samples: int = 1 << 16,
    sweep: bool = True,
    noise_scale: float = 1.0,
    mismatch: float = 0.0,
    provenance: Provenance | None = None,
    jobs: int = 1,
    use_cache: bool = False,
    cache_dir: str | None = None,
    cache: ResultCache | None = None,
    session: TelemetrySession | None = None,
) -> RunManifest:
    """Measure a named design and return its run manifest.

    Parameters
    ----------
    design:
        A runnable design name or alias (``modulator2``, ``mod2``,
        ``chopper``, ``delay-line``, ...).
    n_samples:
        FFT length of the main measurement (the paper's 64K by
        default); the dynamic-range sweep uses half this length.
    sweep:
        Run the compact Table 2 dynamic-range sweep (modulator designs
        only; the delay line reports the Table 1 error fits instead).
    noise_scale:
        Multiplier on the cells' thermal-noise rms -- the degradation
        knob CI uses to prove the gate fires (>1 degrades SNDR).
    mismatch:
        Half-circuit gain mismatch injected into the cells (0 on the
        calibrated chip; >0 degrades even-order cancellation).
    provenance:
        Attribution block; collected from the current process when
        omitted.
    jobs:
        Worker-process count for the dynamic-range sweep (the batch
        engine is bit-identical at any value, so manifests do not
        change with ``jobs``).
    use_cache:
        Memoise the sweep in the on-disk result cache; repeated
        reports on an unchanged config skip the sweep recomputation.
    cache_dir:
        Cache directory (defaults to ``$REPRO_CACHE_DIR`` or
        ``.repro-cache``); only read when ``use_cache`` is set.
    cache:
        An existing :class:`~repro.runtime.cache.ResultCache` to use
        directly, overriding ``use_cache``/``cache_dir``.  The
        simulation service passes its shared, byte-budgeted artifact
        store here so every job hits one cache instance.
    session:
        Telemetry session to trace the run into; a caller-supplied
        session (``repro report --profile``) keeps the recorded spans
        readable after the report returns.  A fresh internal session is
        used when omitted.

    The rung that runs each device is the program's choice
    (:mod:`repro.runtime.engine`); every rung gives the same bytes,
    and the manifest's ``instruments`` count each run under the rung
    that ran it (``repro.engine.runs``) and each refusal with its
    reason.

    Raises
    ------
    ConfigurationError
        If a degradation knob is out of range
        (:func:`repro.designs.check_knobs`) or the design name is not
        in the catalog (:func:`repro.designs.resolve`).
    """
    check_knobs(noise_scale, mismatch)
    with _run_scope() as instruments:
        entry = resolve(design)
        point = entry.point
        registry = registry_for(entry.name)

        if session is None:
            session = TelemetrySession(entry.name)
        device = entry.build(noise_scale, mismatch)
        device.attach_telemetry(session)
        bench = TestBench(
            sample_rate=point.sample_rate,
            n_samples=n_samples,
            bandwidth=point.bandwidth,
            telemetry=session,
        )
        result = bench.measure(
            device, amplitude=point.amplitude, frequency=point.frequency
        )
        tone_records(registry, result.metrics, provenance="span:measure/analysis")

        config: dict[str, object] = {
            "design": entry.name,
            "n_samples": n_samples,
            "sample_rate": point.sample_rate,
            "bandwidth": point.bandwidth,
            "amplitude": point.amplitude,
            "frequency": point.frequency,
            "noise_scale": noise_scale,
            "mismatch": mismatch,
        }

        # The device's (possibly degraded) cell configuration drives the
        # power model: modulators expose .cell_config, the delay line .config.
        cell_config = getattr(device, "cell_config", None) or getattr(
            device, "config", None
        )
        chip = TestChip(cell_config if isinstance(cell_config, MemoryCellConfig) else None)

        if entry.name == "delay-line":
            # Table 1: static gain/offset errors against the ideal delayed
            # stimulus, fitted over the analysed (post-settle) samples.
            total = n_samples + bench.settle_samples
            drive = result.stimulus.generate(total)
            delay_line_error_records(
                registry,
                drive[bench.settle_samples :],
                result.output,
                delay_samples=device.delay_samples,
                inverting=device.inverting,
            )
            # Table 1 noise rows: wideband output noise of a zero-input run
            # and the paper's peak-to-peak SNR convention against it.
            quiet = entry.build(noise_scale, mismatch)
            noise_rms = float(np.std(quiet(np.zeros(1 << 13))[2:]))
            registry.record("noise_rms_na", noise_rms * 1e9, "run:zero-input 8K")
            if noise_rms > 0.0:
                registry.record(
                    "snr_pp_db",
                    20.0 * math.log10(2.0 * point.amplitude / noise_rms),
                    "run:zero-input 8K",
                )
            power = chip.delay_line_power(modulation_index=DELAY_LINE_POWER_INDEX)
            n_cells = 2
            power_index = DELAY_LINE_POWER_INDEX
        else:
            power = chip.modulator_power(modulation_index=MODULATOR_POWER_INDEX)
            n_cells = 8
            power_index = MODULATOR_POWER_INDEX
            if sweep:
                # The batch engine runs one lane per level, bit-identical
                # to driving a fresh device through run_amplitude_sweep
                # (the 8K floor keeps the 2 kHz tone clear of the Blackman
                # window's DC lobe at the modulator clock).
                spec = sweep_spec_for_design(
                    entry.name,
                    n_samples=n_samples,
                    levels_db=SWEEP_LEVELS_DB,
                    noise_scale=noise_scale,
                    mismatch=mismatch,
                )
                if cache is None and use_cache:
                    cache = ResultCache(cache_dir)
                sweep_result = run_sweep(
                    spec,
                    executor=SweepExecutor(jobs=jobs),
                    cache=cache,
                    telemetry=session,
                )
                sweep_records(registry, sweep_result)
                config["sweep_levels_db"] = list(SWEEP_LEVELS_DB)
                config["sweep_n_samples"] = spec.n_samples

        registry.record(
            "power_mw", power * 1e3, f"model:power n_cells={n_cells}"
        )
        cell_power = chip.power_model().cell_power(
            ClassKind.CLASS_AB, modulation_index=power_index
        )
        registry.record(
            "power_per_cell_uw",
            cell_power * 1e6,
            f"model:power class-AB m_i={power_index:g}",
        )

        telemetry_event_records(registry, session)
        throughput_records(registry, session)
        return manifest_from_registry(
            registry,
            config=config,
            provenance=provenance,
            instruments=instruments.snapshot(),
        )
