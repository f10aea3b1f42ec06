"""Command-line interface: regenerate the paper's results from a shell.

Usage::

    python -m repro table1       # delay-line row of Table 1
    python -m repro fig5         # modulator spectrum measurement
    python -m repro fig6         # chopper spectra before/after
    python -m repro fig7         # SNDR sweep + dynamic range
    python -m repro headroom     # Eqs. (1)-(2) supply sweep
    python -m repro tradeoff     # SI vs SC comparison table
    python -m repro erc mod2     # static rule check of a named design
    python -m repro lint src     # determinism/lowerability lint of the source
    python -m repro trace mod2   # traced run: spans, probes, dynamic rules
    python -m repro report mod2 --json out.json   # paper-metrics manifest
    python -m repro compare out.json --strict     # diff vs golden baseline
    python -m repro sweep mod2 --jobs 4           # parallel batched DR sweep
    python -m repro stats mod2 --json s.json      # instrument counters
    python -m repro stats --diff a.json b.json    # gate on counter changes
    python -m repro profile mod2 --fast           # self/total-time profile
    python -m repro bench-gate                    # benchmark regression gate
    python -m repro history mod2                  # run-ledger trajectory
    python -m repro trend --strict                # cross-run drift gate
    python -m repro serve --port 8765             # simulation service (HTTP)
    python -m repro submit mod2 --wait            # submit a job, get manifest
    python -m repro --list       # list the commands

Each measurement command prints the paper-style table.  Full FFT
lengths are used by default; pass ``--fast`` for a quicker,
lower-resolution run.  ``repro erc <design>`` runs the static
electrical-rule checker (:mod:`repro.erc`) and exits non-zero when the
design has ERROR-severity violations; ``repro trace <design>`` runs a
telemetry-instrumented simulation (:mod:`repro.telemetry`) and exits
non-zero when a dynamic rule raises an ERROR event -- e.g. driven with
``--overdrive 5`` the observed modulation index leaves the modeled
class-AB range even though the declared design passes static ERC.

``repro report <design>`` measures a design at its paper operating
point and emits a run manifest (:mod:`repro.metrics`): every headline
number of the paper as a typed, provenance-stamped record.  ``repro
compare <manifest>`` diffs such a manifest against a committed golden
baseline in ``baselines/`` and the paper's published values, exiting
non-zero when a gated metric regressed past its tolerance.

``repro stats <design>`` runs the sweep under a fresh instrument
registry (:mod:`repro.observability`) and prints what the runtime
layer did -- cache hits/misses, engine fallbacks, shard timings --
with worker-process counts merged in; ``repro stats --diff`` gates two
such snapshots with the manifest compare's verdict ladder.  ``repro
profile <design|spec.json>`` collapses the traced span tree into a
self/total-time table (and, with ``--json``, collapsed flamegraph
stacks).  See ``docs/OBSERVABILITY.md``.

Every ``report``, ``sweep`` and ``bench-gate`` run additionally appends
one content-addressed entry to the run ledger
(``.repro/ledger/ledger.jsonl`` or ``$REPRO_LEDGER_DIR``; disable with
``--no-ledger``).  ``repro history <design>`` renders a design's
ledger trajectory as sparkline tables; ``repro trend`` judges every
recorded series for sustained drift against its own rolling
median/MAD history, exiting non-zero on drift sustained over the last
runs -- single noisy runs only warn.  ``report`` and ``sweep`` also
take ``--events PATH`` / ``--follow`` to tail span-level progress as
JSONL while the run executes (workers' events are merged into one
monotonically-ordered timeline).

``repro serve`` boots the simulation service (:mod:`repro.service`):
an HTTP job queue over the same engines, deduplicating identical
requests onto one execution and one byte-identical manifest.
``repro submit <design|spec.json> --wait`` is its client.  See
``docs/SERVICE.md``.
"""

from __future__ import annotations

import argparse
import gc
import sys
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    import numpy as np

    from repro.runtime.sweeps import SweepSpec

# The report verb's engine -- numpy, the device models, the metrics
# layer -- loads with this module: ``repro report`` is how the paper's
# numbers reach a user, and perfbench's traced report op counts
# ``import repro.cli`` as its import layer and wraps the engine's calls
# before ``main`` runs.  Every other verb imports what it uses inside
# its ``cmd_*`` function.
from repro.errors import AnalysisError, ObservabilityError
from repro.metrics import build_report, collect_provenance
from repro.observability.ledger import RunLedger
from repro.observability.live import open_event_stream

__all__ = ["entry", "main"]


def _fft_length(fast: bool) -> int:
    return 1 << 14 if fast else 1 << 16


def _ledger_append(
    kind: str,
    payload: dict[str, object],
    design: str | None = None,
    provenance: dict[str, object] | None = None,
    ledger_dir: str | None = None,
) -> None:
    """Append one run-ledger entry; never fail the run over bookkeeping."""
    ledger = RunLedger(ledger_dir)
    try:
        entry = ledger.append(
            kind, payload, design=design, provenance=provenance
        )
    except (ObservabilityError, OSError) as exc:
        print(f"ledger: not recorded ({exc})", file=sys.stderr)
        return
    if entry is None:
        print(f"ledger: identical entry already in {ledger.path}")
    else:
        print(f"ledger: {entry.entry_id[:19]} appended to {ledger.path}")


def cmd_table1(fast: bool) -> None:
    """Print the Table 1 delay-line measurements."""
    from repro.config import (
        DELAY_LINE_BANDWIDTH,
        DELAY_LINE_CLOCK,
        delay_line_cell_config,
    )
    from repro.reporting.tables import Table
    from repro.si import DelayLine
    from repro.systems import TestBench

    config = delay_line_cell_config(sample_rate=DELAY_LINE_CLOCK)
    bench = TestBench(
        sample_rate=DELAY_LINE_CLOCK,
        n_samples=_fft_length(fast),
        bandwidth=DELAY_LINE_BANDWIDTH,
    )
    line = DelayLine(config, n_cells=2)

    def device(x: np.ndarray) -> np.ndarray:
        line.reset()
        return line.run(x)

    result = bench.measure(device, amplitude=8e-6, frequency=5e3)
    table = Table("Table 1: delay line at 5 MHz, 8 uA / 5 kHz", ("quantity", "paper", "measured"))
    table.add_row("THD", "-50 dB", f"{result.thd_db:.1f} dB")
    table.add_row("SNR (rms conv.)", "50 dB (p-p conv.)", f"{result.snr_db:.1f} dB")
    print(table.render())


def cmd_fig5(fast: bool) -> None:
    """Print the Fig. 5 modulator measurement."""
    from repro.config import MODULATOR_CLOCK, SIGNAL_BANDWIDTH, paper_cell_config
    from repro.deltasigma import SIModulator2
    from repro.reporting.tables import Table
    from repro.systems import TestBench

    modulator = SIModulator2(cell_config=paper_cell_config(sample_rate=MODULATOR_CLOCK))
    bench = TestBench(
        sample_rate=MODULATOR_CLOCK,
        n_samples=_fft_length(fast),
        bandwidth=SIGNAL_BANDWIDTH,
    )
    result = bench.measure(modulator, amplitude=3e-6, frequency=2e3)
    table = Table("Fig. 5: SI modulator, 2 kHz 3 uA (-6 dB)", ("quantity", "paper", "measured"))
    table.add_row("THD", "-61 dB", f"{result.thd_db:.1f} dB")
    table.add_row("SNR (10 kHz)", "58 dB", f"{result.snr_db:.1f} dB")
    table.add_row("SNDR", "-", f"{result.sndr_db:.1f} dB")
    print(table.render())


def cmd_fig6(fast: bool) -> None:
    """Print the Fig. 6 chopper-modulator measurement."""
    from repro.config import MODULATOR_CLOCK, SIGNAL_BANDWIDTH, paper_cell_config
    from repro.deltasigma import ChopperStabilizedSIModulator
    from repro.reporting.tables import Table
    from repro.systems import TestBench

    modulator = ChopperStabilizedSIModulator(
        cell_config=paper_cell_config(sample_rate=MODULATOR_CLOCK)
    )
    bench = TestBench(
        sample_rate=MODULATOR_CLOCK,
        n_samples=_fft_length(fast),
        bandwidth=SIGNAL_BANDWIDTH,
    )
    result = bench.measure(modulator, amplitude=3e-6, frequency=2e3)
    table = Table(
        "Fig. 6(b): chopper-stabilised SI modulator (post-chopper)",
        ("quantity", "paper", "measured"),
    )
    table.add_row("THD", "-62 dB", f"{result.thd_db:.1f} dB")
    table.add_row("SNR (10 kHz)", "58 dB", f"{result.snr_db:.1f} dB")
    print(table.render())


def cmd_fig7(fast: bool) -> None:
    """Print the Fig. 7 sweep and the extracted dynamic range."""
    from repro.analysis.fitting import dynamic_range_from_sweep
    from repro.analysis.sweeps import run_amplitude_sweep
    from repro.config import (
        MODULATOR_CLOCK,
        MODULATOR_FULL_SCALE,
        SIGNAL_BANDWIDTH,
        paper_cell_config,
    )
    from repro.deltasigma import ChopperStabilizedSIModulator, SIModulator2
    from repro.metrics.spectral import db_to_bits
    from repro.reporting.tables import Table
    from repro.systems.stimulus import coherent_frequency

    config = paper_cell_config(sample_rate=MODULATOR_CLOCK)
    n_samples = 1 << 13 if fast else 1 << 15
    frequency = coherent_frequency(2e3, MODULATOR_CLOCK, n_samples)
    levels = [-50.0, -40.0, -30.0, -20.0, -10.0, -6.0, 0.0]
    table = Table(
        "Fig. 7: Signal/(Noise+THD) vs input level (0 dB = 6 uA)",
        ("level", "non-chopper", "chopper"),
    )
    drs = {}
    sweeps = {}
    for name, modulator in (
        ("non-chopper", SIModulator2(cell_config=config)),
        ("chopper", ChopperStabilizedSIModulator(cell_config=config)),
    ):
        sweeps[name] = run_amplitude_sweep(
            modulator,
            levels_db=levels,
            full_scale=MODULATOR_FULL_SCALE,
            signal_frequency=frequency,
            sample_rate=MODULATOR_CLOCK,
            n_samples=n_samples,
            bandwidth=SIGNAL_BANDWIDTH,
            settle_samples=256,
        )
        drs[name] = dynamic_range_from_sweep(sweeps[name], max_level_db=-10.0)
    for index, level in enumerate(levels):
        table.add_row(
            f"{level:.0f} dB",
            f"{sweeps['non-chopper'].sndr_db[index]:.1f} dB",
            f"{sweeps['chopper'].sndr_db[index]:.1f} dB",
        )
    print(table.render())
    for name, dr in drs.items():
        print(f"dynamic range ({name}): {dr:.1f} dB = {db_to_bits(dr):.1f} bits "
              "(paper: ~63 dB / 10.5 bits)")


def cmd_headroom(fast: bool) -> None:
    """Print the Eqs. (1)-(2) supply sweep."""
    from repro.reporting.tables import Table
    from repro.si import HeadroomAnalysis

    analysis = HeadroomAnalysis()
    table = Table(
        "Eqs. (1)-(2): minimum supply vs modulation index",
        ("m_i", "V_dd,min", "feasible at 3.3 V"),
    )
    for m_i in (0.0, 1.0, 2.0, 4.0, 8.0):
        budget = analysis.evaluate(m_i)
        table.add_row(
            f"{m_i:.0f}",
            f"{budget.vdd_min:.2f} V",
            "yes" if budget.feasible_at(3.3) else "NO",
        )
    print(table.render())


def cmd_tradeoff(fast: bool) -> None:
    """Print the SI-vs-SC dynamic-range trade-off table."""
    from repro.reporting.tables import Table
    from repro.sc.tradeoff import ScSiTradeoff

    tradeoff = ScSiTradeoff()
    table = Table(
        "SI vs SC at the paper's operating point (6 uA FS, OSR 128)",
        ("technology", "storage C", "noise rms", "DR", "double-poly?"),
    )
    for point in tradeoff.sweep([0.25e-12, 1e-12, 2.5e-12, 10e-12]):
        table.add_row(
            point.label,
            f"{point.storage_capacitance * 1e15:.0f} fF",
            f"{point.noise_rms * 1e9:.1f} nA",
            f"{point.dynamic_range_db:.1f} dB ({point.dynamic_range_bits:.1f} b)",
            "yes" if point.needs_double_poly else "no",
        )
    print(table.render())
    print('"The SI technique is an inexpensive alternative to the SC '
          'technique for medium accuracy applications."')


def cmd_erc(design: str, min_severity: str, strict: bool) -> int:
    """Statically check a named design against the ERC rule set."""
    from repro.designs import DESIGNS, resolve
    from repro.erc import Severity, run_erc

    names = sorted(DESIGNS) if design == "all" else [design]
    exit_code = 0
    for name in names:
        report = run_erc(
            resolve(name).graph(), min_severity=Severity.from_name(min_severity)
        )
        print(report.render_table())
        print(report.summary())
        exit_code = max(exit_code, report.exit_code(strict))
    return exit_code


def cmd_lint(
    paths: list[str],
    min_severity: str = "info",
    strict: bool = False,
    select: str | None = None,
    ignore: str | None = None,
    baseline: str | None = "baselines/staticcheck.json",
    json_path: str | None = None,
) -> int:
    """Statically check source files for determinism/lowerability contracts."""
    from repro.errors import ConfigurationError
    from repro.findings import Severity
    from repro.staticcheck import run_lint

    def split_codes(raw: str | None) -> list[str] | None:
        if raw is None:
            return None
        return [code.strip() for code in raw.split(",") if code.strip()]

    try:
        report = run_lint(
            paths,
            select=split_codes(select),
            ignore=split_codes(ignore),
            baseline=baseline,
            min_severity=Severity.from_name(min_severity),
        )
    except ConfigurationError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    print(report.render_table())
    if report.suppressed:
        print(
            f"{len(report.suppressed)} finding(s) suppressed by "
            f"{baseline} (see reasons there)"
        )
    print(report.summary())
    if json_path is not None:
        target = report.write_json(json_path)
        print(f"lint report written to {target}")
    return report.exit_code(strict)


def cmd_trace(
    design: str,
    fast: bool = False,
    samples: int | None = None,
    overdrive: float = 1.0,
    supply: float | None = None,
    json_path: str | None = None,
    strict: bool = False,
) -> int:
    """Run a traced simulation; print span, probe and event tables."""
    from repro.designs import resolve
    from repro.systems import TestBench
    from repro.telemetry import TelemetrySession, export_jsonl

    entry = resolve(design)
    point = entry.point
    n_samples = samples if samples is not None else (1 << 14 if fast else 1 << 16)
    session = TelemetrySession(entry.name)
    device = entry.build()
    # Attach before the bench does so --supply reaches the probe
    # metadata; the bench's auto-attach then finds the probes existing.
    device.attach_telemetry(session, supply_voltage=supply)
    bench = TestBench(
        sample_rate=point.sample_rate,
        n_samples=n_samples,
        bandwidth=point.bandwidth,
        telemetry=session,
    )
    result = bench.measure(
        device,
        amplitude=overdrive * point.amplitude,
        frequency=point.frequency,
    )
    print(f"{entry.name}: {entry.description}")
    print(
        f"drive: {overdrive * point.amplitude * 1e6:.2f} uA peak at "
        f"{result.stimulus.frequency / 1e3:.3f} kHz, "
        f"{n_samples} analysed samples"
    )
    print(session.render_span_tree())
    print(session.render_probe_table())
    print(session.render_event_table())
    print(session.summary())
    if json_path is not None:
        target = export_jsonl(session, json_path)
        print(f"trace written to {target}")
    return session.gate.exit_code(strict)


def cmd_sweep(
    design: str,
    fast: bool = False,
    samples: int | None = None,
    levels: list[float] | None = None,
    jobs: int = 1,
    cache: bool = True,
    cache_dir: str | None = None,
    json_path: str | None = None,
    profile: bool = False,
    events: str | None = None,
    follow: bool = False,
    ledger: bool = True,
    ledger_dir: str | None = None,
) -> int:
    """Run a dynamic-range sweep through the parallel batch engine."""
    import json

    from repro.analysis.fitting import dynamic_range_from_sweep
    from repro.metrics.spectral import db_to_bits
    from repro.observability.instruments import InstrumentRegistry, use_registry
    from repro.reporting.tables import Table
    from repro.runtime import ResultCache, SweepExecutor
    from repro.runtime.sweeps import (
        DEFAULT_LEVELS_DB,
        run_sweep,
        sweep_spec_for_design,
    )

    n_samples = samples if samples is not None else (1 << 13 if fast else 1 << 15)
    spec = sweep_spec_for_design(
        design,
        n_samples=2 * n_samples,  # spec halves the main FFT length
        levels_db=tuple(levels) if levels else DEFAULT_LEVELS_DB,
    )
    result_cache = ResultCache(cache_dir) if cache else None
    stream = open_event_stream(events, follow=follow, source=spec.design)
    session = None
    if profile or stream is not None:
        from repro.telemetry.session import TelemetrySession

        session = TelemetrySession(spec.design, stream=stream)
    # A fresh registry isolates this sweep's instruments from whatever
    # the process accumulated before; worker snapshots merge into it.
    registry = InstrumentRegistry()
    try:
        with use_registry(registry):
            result = run_sweep(
                spec,
                executor=SweepExecutor(jobs=jobs),
                cache=result_cache,
                telemetry=session,
            )
    finally:
        if stream is not None:
            stream.close()
    table = Table(
        f"{spec.design}: SNDR vs input level "
        f"({spec.n_samples} samples/lane, {jobs} job(s))",
        ("level", "SNR", "THD", "SNDR"),
    )
    for index, level in enumerate(spec.levels_db):
        metrics = result.metrics[index]
        table.add_row(
            f"{level:.0f} dB",
            f"{metrics.snr_db:.1f} dB",
            f"{metrics.thd_db:.1f} dB",
            f"{metrics.sndr_db:.1f} dB",
        )
    print(table.render())
    try:
        dr: float | None = dynamic_range_from_sweep(result, max_level_db=-10.0)
    except AnalysisError:
        # Spot-checking a couple of levels leaves too few points in the
        # linear region to fit; the per-level table above still stands.
        dr = None
        print("dynamic range: n/a (too few levels to fit the linear region)")
    else:
        print(
            f"dynamic range: {dr:.1f} dB = {db_to_bits(dr):.1f} bits "
            "(paper: ~63 dB / 10.5 bits)"
        )
    if result_cache is not None:
        print(
            f"cache: {result_cache.hits} hit(s), "
            f"{result_cache.misses} miss(es) in {result_cache.directory}"
        )
    if profile and session is not None:
        # One merged tree: the parent sweep span with each worker's
        # shard:<index> subtree grafted under it.
        print(session.render_span_tree())
        print(registry.render_table(title=f"instruments: {spec.design}"))
    payload: dict[str, object] = {
        "design": spec.design,
        "levels_db": list(spec.levels_db),
        "n_samples": spec.n_samples,
        "snr_db": [m.snr_db for m in result.metrics],
        "thd_db": [m.thd_db for m in result.metrics],
        "sndr_db": [m.sndr_db for m in result.metrics],
        "dynamic_range_db": dr,
    }
    if json_path is not None:
        with open(json_path, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"sweep written to {json_path}")
    if ledger:
        _ledger_append(
            "sweep", payload, design=spec.design, ledger_dir=ledger_dir
        )
    return 0


def cmd_stats(
    design: str | None = None,
    fast: bool = False,
    samples: int | None = None,
    levels: list[float] | None = None,
    jobs: int = 1,
    cache: bool = True,
    cache_dir: str | None = None,
    json_path: str | None = None,
    diff: list[str] | None = None,
    strict: bool = False,
    prometheus: bool = False,
) -> int:
    """Run a sweep and print its instrument counters, or diff two snapshots."""
    from repro.errors import ConfigurationError
    from repro.observability.instruments import InstrumentRegistry, use_registry
    from repro.observability.stats import (
        diff_snapshots,
        load_stats_json,
        write_stats_json,
    )

    if diff is not None:
        try:
            current = load_stats_json(diff[0])
            baseline = load_stats_json(diff[1])
            report = diff_snapshots(current, baseline)
        except ObservabilityError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(report.render_table())
        print(report.summary())
        return report.exit_code(strict=strict)

    if design is None:
        print(
            "error: a design is required unless --diff is given",
            file=sys.stderr,
        )
        return 2

    from repro.runtime import ResultCache, SweepExecutor
    from repro.runtime.sweeps import (
        DEFAULT_LEVELS_DB,
        run_sweep,
        sweep_spec_for_design,
    )

    n_samples = samples if samples is not None else (1 << 13 if fast else 1 << 15)
    try:
        spec = sweep_spec_for_design(
            design,
            n_samples=2 * n_samples,  # spec halves the main FFT length
            levels_db=tuple(levels) if levels else DEFAULT_LEVELS_DB,
        )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # A fresh registry means the printed counts describe exactly this
    # run -- worker snapshots merge into it across the process boundary.
    registry = InstrumentRegistry()
    with use_registry(registry):
        run_sweep(
            spec,
            executor=SweepExecutor(jobs=jobs),
            cache=ResultCache(cache_dir) if cache else None,
        )
    print(registry.render_table(title=f"instruments: {spec.design}"))
    if prometheus:
        print(registry.to_prometheus_text(), end="")
    if json_path is not None:
        config: dict[str, object] = {
            "design": spec.design,
            "n_samples": spec.n_samples,
            "levels_db": list(spec.levels_db),
            "jobs": jobs,
            "cache": cache,
        }
        target = write_stats_json(
            json_path, registry.snapshot(), design=spec.design, config=config
        )
        print(f"stats written to {target}")
    return 0


def _sweep_spec_from_json(path: str) -> "SweepSpec":
    """Load a SweepSpec from a JSON file of its constructor fields."""
    from repro.errors import ConfigurationError
    from repro.findings import read_json_object
    from repro.runtime.sweeps import sweep_spec_from_mapping

    raw = read_json_object(path, "sweep spec", ConfigurationError)
    try:
        return sweep_spec_from_mapping(raw)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


def cmd_profile(
    target: str,
    fast: bool = False,
    samples: int | None = None,
    sweep: bool = True,
    jobs: int = 1,
    cache: bool = True,
    cache_dir: str | None = None,
    json_path: str | None = None,
) -> int:
    """Profile a design report (or a sweep-spec JSON): where time went."""
    import json
    from pathlib import Path

    from repro.errors import ConfigurationError, MetricsError
    from repro.observability.profile import (
        aggregate_profile,
        collapsed_stacks,
        render_profile_table,
    )
    from repro.observability.spanio import span_to_dict
    from repro.observability.stats import PROFILE_SCHEMA
    from repro.telemetry.session import TelemetrySession

    if target.endswith(".json"):
        from repro.runtime import ResultCache, SweepExecutor
        from repro.runtime.sweeps import run_sweep

        try:
            spec = _sweep_spec_from_json(target)
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        session = TelemetrySession(spec.design)
        run_sweep(
            spec,
            executor=SweepExecutor(jobs=jobs),
            cache=ResultCache(cache_dir) if cache else None,
            telemetry=session,
        )
    else:
        n_samples = (
            samples if samples is not None else (1 << 14 if fast else 1 << 16)
        )
        session = TelemetrySession(target)
        try:
            build_report(
                target,
                n_samples=n_samples,
                sweep=sweep,
                jobs=jobs,
                use_cache=cache,
                cache_dir=cache_dir,
                session=session,
            )
        except (ConfigurationError, MetricsError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    rows = aggregate_profile(session.roots)
    print(session.render_span_tree())
    print(render_profile_table(rows))
    if json_path is not None:
        document: dict[str, object] = {
            "schema": PROFILE_SCHEMA,
            "target": target,
            "rows": [row.as_dict() for row in rows],
            "collapsed_stacks": collapsed_stacks(session.roots),
            "spans": [span_to_dict(root) for root in session.roots],
        }
        Path(json_path).write_text(json.dumps(document, indent=2) + "\n")
        print(f"profile written to {json_path}")
    return 0


def cmd_bench_gate(
    telemetry_path: str = "BENCH_telemetry.json",
    baseline_path: str = "baselines/bench.json",
    tolerance: float | None = None,
    ledger: bool = True,
    ledger_dir: str | None = None,
) -> int:
    """Check benchmark telemetry against the committed wall-time baseline."""
    from repro.errors import MetricsError
    from repro.metrics import run_bench_gate

    try:
        report = run_bench_gate(
            telemetry_path, baseline_path, tolerance=tolerance
        )
    except MetricsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.render_table())
    print(report.summary())
    if report.extra_benchmarks:
        print(
            f"(not gated: {len(report.extra_benchmarks)} benchmark(s) "
            "without a baseline entry)"
        )
    if ledger:
        payload: dict[str, object] = {
            "tolerance": report.tolerance,
            "ok": report.ok,
            "failures": list(report.failures),
            "rows": [
                {
                    "benchmark": row.benchmark,
                    "wall_s": row.wall_s,
                    "limit_s": row.limit_s,
                    "speedup": row.speedup,
                    "min_speedup": row.min_speedup,
                    "ok": not row.failures,
                }
                for row in report.rows
            ],
        }
        _ledger_append("bench-gate", payload, ledger_dir=ledger_dir)
    return report.exit_code()


def _ledger_design(name: str) -> str | None:
    """Return the canonical name the ledger records ``name`` under.

    Prints the catalog's refusal and returns None for a name outside
    the catalog.
    """
    from repro.designs import resolve
    from repro.errors import ConfigurationError

    try:
        return resolve(name).name
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def cmd_history(
    design: str,
    limit: int = 10,
    ledger_dir: str | None = None,
) -> int:
    """Show a design's run-ledger trajectory (metrics and entries)."""
    from repro.observability.trend import render_history

    canonical = _ledger_design(design)
    if canonical is None:
        return 2
    ledger = RunLedger(ledger_dir)
    print(render_history(ledger, canonical, limit=limit))
    known = ledger.designs()
    if canonical not in known and known:
        print(f"(designs with history: {', '.join(known)})")
    return 0


def cmd_trend(
    design: str | None = None,
    window: int | None = None,
    sustain: int | None = None,
    threshold: float | None = None,
    strict: bool = False,
    json_path: str | None = None,
    ledger_dir: str | None = None,
) -> int:
    """Gate on sustained cross-run drift in the run ledger."""
    from repro.errors import ConfigurationError
    from repro.observability.trend import (
        DEFAULT_SUSTAIN,
        DEFAULT_THRESHOLD,
        DEFAULT_WINDOW,
        analyze_ledger,
    )

    if design is not None:
        design = _ledger_design(design)
        if design is None:
            return 2
    try:
        report = analyze_ledger(
            RunLedger(ledger_dir),
            design=design,
            window=window if window is not None else DEFAULT_WINDOW,
            sustain=sustain if sustain is not None else DEFAULT_SUSTAIN,
            threshold=threshold if threshold is not None else DEFAULT_THRESHOLD,
        )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.render_table())
    print(report.summary())
    if json_path is not None:
        target = report.write_json(json_path)
        print(f"trend report written to {target}")
    return report.exit_code(strict=strict)


def cmd_report(
    design: str,
    fast: bool = False,
    samples: int | None = None,
    sweep: bool = True,
    noise_scale: float = 1.0,
    mismatch: float = 0.0,
    jobs: int = 1,
    cache: bool = True,
    cache_dir: str | None = None,
    json_path: str | None = None,
    markdown_path: str | None = None,
    profile: bool = False,
    events: str | None = None,
    follow: bool = False,
    ledger: bool = True,
    ledger_dir: str | None = None,
    engine: str = "auto",
    argv: list[str] | None = None,
) -> int:
    """Measure a design and emit its paper-metrics run manifest."""
    n_samples = samples if samples is not None else (1 << 14 if fast else 1 << 16)
    stream = open_event_stream(events, follow=follow, source=design)
    session = None
    if profile or stream is not None:
        from repro.telemetry.session import TelemetrySession

        session = TelemetrySession(design, stream=stream)
    try:
        manifest = build_report(
            design,
            n_samples=n_samples,
            sweep=sweep,
            noise_scale=noise_scale,
            mismatch=mismatch,
            jobs=jobs,
            use_cache=cache,
            cache_dir=cache_dir,
            provenance=collect_provenance(argv=argv),
            session=session,
            engine=engine,
        )
    finally:
        if stream is not None:
            stream.close()
    print(manifest.render_table())
    if profile and session is not None:
        print(session.render_span_tree())
    if json_path is not None:
        target = manifest.write_json(json_path)
        print(f"manifest written to {target}")
    if markdown_path is not None:
        from pathlib import Path

        Path(markdown_path).write_text(manifest.render_markdown())
        print(f"markdown report written to {markdown_path}")
    if ledger:
        # The manifest's own provenance block becomes the entry's
        # provenance; keeping it out of the payload lets an identical
        # re-measurement content-address to the same entry.
        payload = manifest.as_dict()
        provenance = payload.pop("provenance", None)
        _ledger_append(
            "report",
            payload,
            design=manifest.design,
            provenance=provenance if isinstance(provenance, dict) else None,
            ledger_dir=ledger_dir,
        )
    return 0


def cmd_compare(
    manifest_path: str,
    baseline_path: str | None = None,
    strict: bool = False,
) -> int:
    """Diff a run manifest against a golden baseline; exit 1 on regression."""
    from repro.errors import MetricsError
    from repro.metrics import compare_manifests, load_manifest

    try:
        current = load_manifest(manifest_path)
        baseline = load_manifest(
            baseline_path
            if baseline_path is not None
            else f"baselines/{current.design}.json"
        )
    except MetricsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = compare_manifests(current, baseline)
    print(report.render_table())
    print(report.summary())
    return report.exit_code(strict=strict)


def cmd_serve(
    host: str = "127.0.0.1",
    port: int = 8765,
    jobs: int = 1,
    workers: int = 1,
    max_pending: int = 64,
    cache_dir: str | None = None,
    max_bytes: int | None = None,
    ledger: bool = True,
    ledger_dir: str | None = None,
) -> int:
    """Run the simulation service over HTTP until interrupted."""
    from repro.errors import ConfigurationError, ServiceError
    from repro.service import ServiceConfig, serve

    try:
        return serve(
            ServiceConfig(
                host=host,
                port=port,
                jobs=jobs,
                workers=workers,
                max_pending=max_pending,
                cache_dir=cache_dir,
                max_bytes=max_bytes,
                ledger=ledger,
                ledger_dir=ledger_dir,
            )
        )
    except (ConfigurationError, ServiceError, OSError) as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 1


def cmd_submit(
    target: str,
    url: str = "http://127.0.0.1:8765",
    samples: int | None = None,
    sweep: bool = True,
    noise_scale: float = 1.0,
    mismatch: float = 0.0,
    wait: bool = False,
    timeout: float = 300.0,
    output: str | None = None,
) -> int:
    """Submit a design (or sweep-spec JSON) to a running service."""
    import json
    from pathlib import Path

    from repro.errors import QueueFullError, ServiceError
    from repro.service import ServiceClient

    # A target that exists on disk (or ends in .json) is a sweep spec;
    # anything else is a design name for a report job.
    request: dict[str, object]
    if target.endswith(".json") or Path(target).exists():
        try:
            spec = json.loads(Path(target).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"submit: cannot read sweep spec {target}: {exc}",
                  file=sys.stderr)
            return 2
        request = {"kind": "sweep", "spec": spec}
    else:
        request = {
            "kind": "report",
            "design": target,
            "sweep": sweep,
            "noise_scale": noise_scale,
            "mismatch": mismatch,
        }
        if samples is not None:
            request["n_samples"] = samples

    client = ServiceClient(url)
    try:
        descriptor = client.submit(request)
    except (QueueFullError, ServiceError) as exc:
        print(f"submit: {exc}", file=sys.stderr)
        return 1
    job_id = str(descriptor["id"])
    # Status goes to stderr: stdout carries only the job id (no --wait)
    # or the result document, so scripts can consume it directly.
    print(
        f"job {job_id[:12]} {descriptor['state']}"
        f" ({descriptor['disposition']})",
        file=sys.stderr,
    )
    if not wait:
        print(job_id)
        return 0
    try:
        payload = client.result_bytes(job_id, timeout_s=timeout)
    except ServiceError as exc:
        print(f"submit: {exc}", file=sys.stderr)
        return 1
    if output is not None:
        Path(output).write_bytes(payload)
        print(f"result written to {output}", file=sys.stderr)
    else:
        sys.stdout.write(payload.decode("utf-8"))
    return 0


#: Measurement commands: name -> callable taking the --fast flag.
COMMANDS: dict[str, Callable[[bool], None]] = {
    "table1": cmd_table1,
    "fig5": cmd_fig5,
    "fig6": cmd_fig6,
    "fig7": cmd_fig7,
    "headroom": cmd_headroom,
    "tradeoff": cmd_tradeoff,
}


def _first_doc_line(func: Callable[..., object]) -> str:
    """Return the first docstring line, for --list and --help output."""
    doc = func.__doc__ or ""
    return doc.strip().splitlines()[0] if doc.strip() else ""


def _add_ledger_options(sub: argparse.ArgumentParser) -> None:
    """Add the run-ledger options shared by the recording commands."""
    sub.add_argument(
        "--no-ledger",
        dest="ledger",
        action="store_false",
        help="do not append this run to the run ledger",
    )
    sub.add_argument(
        "--ledger-dir",
        default=None,
        metavar="DIR",
        help="ledger directory (default: $REPRO_LEDGER_DIR or .repro/ledger)",
    )


def _add_live_ledger_options(sub: argparse.ArgumentParser) -> None:
    """Add the live-event-stream plus ledger options (report/sweep)."""
    sub.add_argument(
        "--events",
        default=None,
        metavar="PATH",
        help="stream span/instrument events as JSONL to PATH ('-' = stdout)",
    )
    sub.add_argument(
        "--follow",
        action="store_true",
        help="mirror the live event stream to stderr while running",
    )
    _add_ledger_options(sub)


def build_parser() -> argparse.ArgumentParser:
    """Return the argument parser with one sub-command per command."""
    from repro.designs import design_names

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate results from the DATE 1995 switched-current paper.",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available commands"
    )
    subparsers = parser.add_subparsers(dest="command", metavar="command")
    for name in sorted(COMMANDS):
        sub = subparsers.add_parser(
            name,
            help=_first_doc_line(COMMANDS[name]),
            description=_first_doc_line(COMMANDS[name]),
        )
        sub.add_argument(
            "--fast",
            action="store_true",
            help="use shorter FFTs for a quick look",
        )
    erc = subparsers.add_parser(
        "erc",
        help=_first_doc_line(cmd_erc),
        description=_first_doc_line(cmd_erc),
    )
    erc.add_argument(
        "design",
        choices=design_names() + ["all"],
        help="design to check, or 'all'",
    )
    erc.add_argument(
        "--min-severity",
        choices=["info", "warning", "error"],
        default="info",
        help="hide violations below this severity (default: info)",
    )
    erc.add_argument(
        "--strict",
        action="store_true",
        help="also exit non-zero on warnings",
    )
    lint = subparsers.add_parser(
        "lint",
        help=_first_doc_line(cmd_lint),
        description=_first_doc_line(cmd_lint),
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--min-severity",
        choices=["info", "warning", "error"],
        default="info",
        help="hide findings below this severity (default: info)",
    )
    lint.add_argument(
        "--strict",
        action="store_true",
        help="also exit non-zero on warnings",
    )
    lint.add_argument(
        "--select",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to run exclusively (e.g. SC001,SC010)",
    )
    lint.add_argument(
        "--ignore",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    lint.add_argument(
        "--baseline",
        default="baselines/staticcheck.json",
        metavar="PATH",
        help="suppression baseline (default: baselines/staticcheck.json)",
    )
    lint.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the suppression baseline entirely",
    )
    lint.add_argument(
        "--json",
        dest="json_path",
        default=None,
        metavar="PATH",
        help="also write the findings as a JSON document",
    )
    trace = subparsers.add_parser(
        "trace",
        help=_first_doc_line(cmd_trace),
        description=_first_doc_line(cmd_trace),
    )
    runnable = design_names(runnable=True)
    trace.add_argument(
        "design",
        choices=runnable,
        help="design to trace",
    )
    trace.add_argument(
        "--fast",
        action="store_true",
        help="use a shorter run (16K samples instead of 64K)",
    )
    trace.add_argument(
        "--samples",
        type=int,
        default=None,
        metavar="N",
        help="analysed sample count (overrides --fast)",
    )
    trace.add_argument(
        "--overdrive",
        type=float,
        default=1.0,
        metavar="X",
        help="scale the nominal stimulus amplitude by X (default: 1.0)",
    )
    trace.add_argument(
        "--supply",
        type=float,
        default=None,
        metavar="V",
        help="supply voltage for the dynamic headroom rule (default: 3.3)",
    )
    trace.add_argument(
        "--json",
        dest="json_path",
        default=None,
        metavar="PATH",
        help="also export the trace as JSONL to PATH",
    )
    trace.add_argument(
        "--strict",
        action="store_true",
        help="also exit non-zero on WARNING events",
    )
    report = subparsers.add_parser(
        "report",
        help=_first_doc_line(cmd_report),
        description=_first_doc_line(cmd_report),
    )
    report.add_argument(
        "design",
        choices=runnable,
        help="design to measure and report",
    )
    report.add_argument(
        "--fast",
        action="store_true",
        help="use a shorter run (16K samples instead of 64K)",
    )
    report.add_argument(
        "--samples",
        type=int,
        default=None,
        metavar="N",
        help="analysed sample count (overrides --fast)",
    )
    report.add_argument(
        "--no-sweep",
        dest="sweep",
        action="store_false",
        help="skip the dynamic-range sweep (modulator designs)",
    )
    report.add_argument(
        "--noise-scale",
        type=float,
        default=1.0,
        metavar="X",
        help="scale the cells' thermal noise by X (degradation knob)",
    )
    report.add_argument(
        "--mismatch",
        type=float,
        default=0.0,
        metavar="M",
        help="inject a half-circuit gain mismatch of M (degradation knob)",
    )
    report.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the dynamic-range sweep "
        "(bit-identical manifests at any value; default: 1)",
    )
    report.add_argument(
        "--engine",
        choices=["auto", "scalar", "kernel"],
        default="auto",
        help="execution engine for the measurement and sweep "
        "(bit-identical values on every rung; stamped into the "
        "manifest's provenance so timings stay attributable; "
        "default: auto)",
    )
    report.add_argument(
        "--profile",
        action="store_true",
        help="print the traced span tree (wall time per stage) after "
        "the manifest",
    )
    report.add_argument(
        "--no-cache",
        dest="cache",
        action="store_false",
        help="skip the on-disk sweep result cache",
    )
    report.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="sweep cache directory (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    report.add_argument(
        "--json",
        dest="json_path",
        default=None,
        metavar="PATH",
        help="also write the run manifest as JSON to PATH",
    )
    report.add_argument(
        "--markdown",
        dest="markdown_path",
        default=None,
        metavar="PATH",
        help="also write a Markdown report to PATH",
    )
    _add_live_ledger_options(report)
    sweep = subparsers.add_parser(
        "sweep",
        help=_first_doc_line(cmd_sweep),
        description=_first_doc_line(cmd_sweep),
    )
    sweep.add_argument(
        "design",
        choices=runnable,
        help="design to sweep",
    )
    sweep.add_argument(
        "--fast",
        action="store_true",
        help="use shorter lanes (8K samples instead of 32K)",
    )
    sweep.add_argument(
        "--samples",
        type=int,
        default=None,
        metavar="N",
        help="samples per lane (overrides --fast)",
    )
    sweep.add_argument(
        "--levels",
        type=float,
        nargs="+",
        default=None,
        metavar="DB",
        help="input levels in dB re full scale (default: the report sweep)",
    )
    sweep.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes sharding the lanes (default: 1)",
    )
    sweep.add_argument(
        "--no-cache",
        dest="cache",
        action="store_false",
        help="skip the on-disk result cache",
    )
    sweep.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="cache directory (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    sweep.add_argument(
        "--json",
        dest="json_path",
        default=None,
        metavar="PATH",
        help="also write the sweep table as JSON to PATH",
    )
    sweep.add_argument(
        "--profile",
        action="store_true",
        help="print the merged span tree (parent + grafted worker "
        "shards) and the run's instrument counters",
    )
    _add_live_ledger_options(sweep)
    stats = subparsers.add_parser(
        "stats",
        help=_first_doc_line(cmd_stats),
        description=_first_doc_line(cmd_stats),
    )
    stats.add_argument(
        "design",
        nargs="?",
        default=None,
        help="design to sweep and account (omit with --diff)",
    )
    stats.add_argument(
        "--fast",
        action="store_true",
        help="use shorter lanes (8K samples instead of 32K)",
    )
    stats.add_argument(
        "--samples",
        type=int,
        default=None,
        metavar="N",
        help="samples per lane (overrides --fast)",
    )
    stats.add_argument(
        "--levels",
        type=float,
        nargs="+",
        default=None,
        metavar="DB",
        help="input levels in dB re full scale (default: the report sweep)",
    )
    stats.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes sharding the lanes (default: 1)",
    )
    stats.add_argument(
        "--no-cache",
        dest="cache",
        action="store_false",
        help="skip the on-disk result cache",
    )
    stats.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="cache directory (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    stats.add_argument(
        "--json",
        dest="json_path",
        default=None,
        metavar="PATH",
        help="write the instrument snapshot as a stats document to PATH",
    )
    stats.add_argument(
        "--prom",
        dest="prometheus",
        action="store_true",
        help="also print the Prometheus text exposition",
    )
    stats.add_argument(
        "--diff",
        nargs=2,
        default=None,
        metavar=("CURRENT", "BASELINE"),
        help="diff two stats documents instead of running a sweep "
        "(exit 1 when a gated counter increased)",
    )
    stats.add_argument(
        "--strict",
        action="store_true",
        help="with --diff, also exit non-zero on warnings",
    )
    profile = subparsers.add_parser(
        "profile",
        help=_first_doc_line(cmd_profile),
        description=_first_doc_line(cmd_profile),
    )
    profile.add_argument(
        "target",
        help="design to profile, or a sweep-spec JSON file "
        "(a file of SweepSpec fields; detected by the .json suffix)",
    )
    profile.add_argument(
        "--fast",
        action="store_true",
        help="use a shorter run (16K samples instead of 64K)",
    )
    profile.add_argument(
        "--samples",
        type=int,
        default=None,
        metavar="N",
        help="analysed sample count (overrides --fast)",
    )
    profile.add_argument(
        "--no-sweep",
        dest="sweep",
        action="store_false",
        help="skip the dynamic-range sweep (design targets)",
    )
    profile.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the sweep (default: 1)",
    )
    profile.add_argument(
        "--no-cache",
        dest="cache",
        action="store_false",
        help="skip the on-disk sweep result cache",
    )
    profile.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="cache directory (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    profile.add_argument(
        "--json",
        dest="json_path",
        default=None,
        metavar="PATH",
        help="also write the profile document (rows, collapsed stacks, "
        "span tree) as JSON to PATH",
    )
    bench_gate = subparsers.add_parser(
        "bench-gate",
        help=_first_doc_line(cmd_bench_gate),
        description=_first_doc_line(cmd_bench_gate),
    )
    bench_gate.add_argument(
        "--telemetry",
        dest="telemetry_path",
        default="BENCH_telemetry.json",
        metavar="PATH",
        help="benchmark telemetry document (default: BENCH_telemetry.json)",
    )
    bench_gate.add_argument(
        "--baseline",
        dest="baseline_path",
        default="baselines/bench.json",
        metavar="PATH",
        help="committed wall-time baseline (default: baselines/bench.json)",
    )
    bench_gate.add_argument(
        "--tolerance",
        type=float,
        default=None,
        metavar="FRAC",
        help="fractional wall-time headroom (default: the baseline's, 0.25)",
    )
    _add_ledger_options(bench_gate)
    history = subparsers.add_parser(
        "history",
        help=_first_doc_line(cmd_history),
        description=_first_doc_line(cmd_history),
    )
    history.add_argument(
        "design",
        help="design whose ledger trajectory to show",
    )
    history.add_argument(
        "--limit",
        type=int,
        default=10,
        metavar="N",
        help="show the last N entries (default: 10)",
    )
    history.add_argument(
        "--ledger-dir",
        default=None,
        metavar="DIR",
        help="ledger directory (default: $REPRO_LEDGER_DIR or .repro/ledger)",
    )
    trend = subparsers.add_parser(
        "trend",
        help=_first_doc_line(cmd_trend),
        description=_first_doc_line(cmd_trend),
    )
    trend.add_argument(
        "design",
        nargs="?",
        default=None,
        help="restrict the gate to one design's series (default: all)",
    )
    trend.add_argument(
        "--window",
        type=int,
        default=None,
        metavar="N",
        help="rolling history window per series (default: 10)",
    )
    trend.add_argument(
        "--sustain",
        type=int,
        default=None,
        metavar="N",
        help="runs that must all drift before REGRESS (default: 3)",
    )
    trend.add_argument(
        "--threshold",
        type=float,
        default=None,
        metavar="X",
        help="drift threshold in robust scale units (default: 4.0)",
    )
    trend.add_argument(
        "--strict",
        action="store_true",
        help="also exit non-zero on single-run warnings",
    )
    trend.add_argument(
        "--json",
        dest="json_path",
        default=None,
        metavar="PATH",
        help="also write the trend report as JSON to PATH",
    )
    trend.add_argument(
        "--ledger-dir",
        default=None,
        metavar="DIR",
        help="ledger directory (default: $REPRO_LEDGER_DIR or .repro/ledger)",
    )
    compare = subparsers.add_parser(
        "compare",
        help=_first_doc_line(cmd_compare),
        description=_first_doc_line(cmd_compare),
    )
    compare.add_argument(
        "manifest",
        help="run manifest JSON to check (from `repro report --json`)",
    )
    compare.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="golden manifest to diff against "
        "(default: baselines/<design>.json)",
    )
    compare.add_argument(
        "--strict",
        action="store_true",
        help="also exit non-zero on warnings and config mismatches",
    )
    serve = subparsers.add_parser(
        "serve",
        help=_first_doc_line(cmd_serve),
        description=_first_doc_line(cmd_serve),
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8765,
        help="bind port; 0 picks a free one (default 8765)",
    )
    serve.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes per simulation sweep (bit-identical)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="queue worker threads (default 1: serialized simulations)",
    )
    serve.add_argument(
        "--max-pending",
        dest="max_pending",
        type=int,
        default=64,
        metavar="N",
        help="queued-job backpressure limit (HTTP 429 past it)",
    )
    serve.add_argument(
        "--cache-dir",
        dest="cache_dir",
        default=None,
        metavar="DIR",
        help="shared artifact store (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    serve.add_argument(
        "--max-bytes",
        dest="max_bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="LRU byte budget of the artifact store (default: unbounded)",
    )
    _add_ledger_options(serve)
    submit = subparsers.add_parser(
        "submit",
        help=_first_doc_line(cmd_submit),
        description=_first_doc_line(cmd_submit),
    )
    submit.add_argument(
        "target", help="design name, or a sweep-spec JSON path"
    )
    submit.add_argument(
        "--url",
        default="http://127.0.0.1:8765",
        help="service base URL (default http://127.0.0.1:8765)",
    )
    submit.add_argument(
        "--samples",
        type=int,
        default=None,
        metavar="N",
        help="FFT length for a report job (server default 16K)",
    )
    submit.add_argument(
        "--no-sweep",
        dest="sweep",
        action="store_false",
        help="skip the dynamic-range sweep in a report job",
    )
    submit.add_argument(
        "--noise-scale",
        dest="noise_scale",
        type=float,
        default=1.0,
        metavar="X",
        help="thermal-noise degradation multiplier",
    )
    submit.add_argument(
        "--mismatch",
        type=float,
        default=0.0,
        metavar="X",
        help="half-circuit gain mismatch to inject",
    )
    submit.add_argument(
        "--wait",
        action="store_true",
        help="block until the job finishes and emit its result",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        metavar="S",
        help="--wait deadline in seconds (default 300)",
    )
    submit.add_argument(
        "--output",
        "-o",
        default=None,
        metavar="PATH",
        help="write the result bytes to PATH instead of stdout",
    )
    return parser


def list_commands() -> str:
    """Return the --list text: every command with a one-line description."""
    lines = []
    for name in sorted(COMMANDS):
        lines.append(f"  {name:10s} {_first_doc_line(COMMANDS[name])}")
    lines.append(f"  {'erc':10s} {_first_doc_line(cmd_erc)}")
    lines.append(f"  {'lint':10s} {_first_doc_line(cmd_lint)}")
    lines.append(f"  {'trace':10s} {_first_doc_line(cmd_trace)}")
    lines.append(f"  {'report':10s} {_first_doc_line(cmd_report)}")
    lines.append(f"  {'compare':10s} {_first_doc_line(cmd_compare)}")
    lines.append(f"  {'sweep':10s} {_first_doc_line(cmd_sweep)}")
    lines.append(f"  {'stats':10s} {_first_doc_line(cmd_stats)}")
    lines.append(f"  {'profile':10s} {_first_doc_line(cmd_profile)}")
    lines.append(f"  {'bench-gate':10s} {_first_doc_line(cmd_bench_gate)}")
    lines.append(f"  {'history':10s} {_first_doc_line(cmd_history)}")
    lines.append(f"  {'trend':10s} {_first_doc_line(cmd_trend)}")
    lines.append(f"  {'serve':10s} {_first_doc_line(cmd_serve)}")
    lines.append(f"  {'submit':10s} {_first_doc_line(cmd_submit)}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    A measurement the analysis cannot perform (a record too short for
    the window, a tone too close to DC) is refused with exit 2, like
    any other input a verb cannot use.
    """
    args = build_parser().parse_args(argv)
    try:
        return _run(args, argv)
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run(args: argparse.Namespace, argv: list[str] | None) -> int:
    """Run the verb ``args`` names; return its exit code."""
    if args.list or args.command is None:
        print(list_commands())
        return 0

    if args.command == "erc":
        return cmd_erc(args.design, args.min_severity, args.strict)

    if args.command == "lint":
        return cmd_lint(
            args.paths,
            min_severity=args.min_severity,
            strict=args.strict,
            select=args.select,
            ignore=args.ignore,
            baseline=None if args.no_baseline else args.baseline,
            json_path=args.json_path,
        )

    if args.command == "trace":
        return cmd_trace(
            args.design,
            fast=args.fast,
            samples=args.samples,
            overdrive=args.overdrive,
            supply=args.supply,
            json_path=args.json_path,
            strict=args.strict,
        )

    if args.command == "report":
        return cmd_report(
            args.design,
            fast=args.fast,
            samples=args.samples,
            sweep=args.sweep,
            noise_scale=args.noise_scale,
            mismatch=args.mismatch,
            jobs=args.jobs,
            cache=args.cache,
            cache_dir=args.cache_dir,
            json_path=args.json_path,
            markdown_path=args.markdown_path,
            profile=args.profile,
            events=args.events,
            follow=args.follow,
            ledger=args.ledger,
            ledger_dir=args.ledger_dir,
            engine=args.engine,
            argv=["repro", *argv] if argv is not None else None,
        )

    if args.command == "sweep":
        return cmd_sweep(
            args.design,
            fast=args.fast,
            samples=args.samples,
            levels=args.levels,
            jobs=args.jobs,
            cache=args.cache,
            cache_dir=args.cache_dir,
            json_path=args.json_path,
            profile=args.profile,
            events=args.events,
            follow=args.follow,
            ledger=args.ledger,
            ledger_dir=args.ledger_dir,
        )

    if args.command == "stats":
        return cmd_stats(
            args.design,
            fast=args.fast,
            samples=args.samples,
            levels=args.levels,
            jobs=args.jobs,
            cache=args.cache,
            cache_dir=args.cache_dir,
            json_path=args.json_path,
            diff=args.diff,
            strict=args.strict,
            prometheus=args.prometheus,
        )

    if args.command == "profile":
        return cmd_profile(
            args.target,
            fast=args.fast,
            samples=args.samples,
            sweep=args.sweep,
            jobs=args.jobs,
            cache=args.cache,
            cache_dir=args.cache_dir,
            json_path=args.json_path,
        )

    if args.command == "bench-gate":
        return cmd_bench_gate(
            telemetry_path=args.telemetry_path,
            baseline_path=args.baseline_path,
            tolerance=args.tolerance,
            ledger=args.ledger,
            ledger_dir=args.ledger_dir,
        )

    if args.command == "history":
        return cmd_history(
            args.design, limit=args.limit, ledger_dir=args.ledger_dir
        )

    if args.command == "trend":
        return cmd_trend(
            design=args.design,
            window=args.window,
            sustain=args.sustain,
            threshold=args.threshold,
            strict=args.strict,
            json_path=args.json_path,
            ledger_dir=args.ledger_dir,
        )

    if args.command == "compare":
        return cmd_compare(
            args.manifest, baseline_path=args.baseline, strict=args.strict
        )

    if args.command == "serve":
        return cmd_serve(
            host=args.host,
            port=args.port,
            jobs=args.jobs,
            workers=args.workers,
            max_pending=args.max_pending,
            cache_dir=args.cache_dir,
            max_bytes=args.max_bytes,
            ledger=args.ledger,
            ledger_dir=args.ledger_dir,
        )

    if args.command == "submit":
        return cmd_submit(
            args.target,
            url=args.url,
            samples=args.samples,
            sweep=args.sweep,
            noise_scale=args.noise_scale,
            mismatch=args.mismatch,
            wait=args.wait,
            timeout=args.timeout,
            output=args.output,
        )

    COMMANDS[args.command](args.fast)
    return 0


def entry() -> int:
    """Process entry point of ``python -m repro`` and the ``repro`` script.

    Runs :func:`main`, then moves every object still tracked by the
    garbage collector into its permanent generation, so the collection
    the interpreter runs at exit does not walk the tens of thousands of
    objects the imports created.  Exit otherwise runs as usual: atexit
    handlers, thread joins and stream flushes all still happen.
    :func:`main` itself never freezes, because tests call it in-process.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(entry())
