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

Every verb is one row of :data:`VERBS`: its name, one-line help,
handler and options.  ``--list``, ``--help`` and dispatch all read
that table, and :func:`main` refuses any input a verb cannot use with
one ``error:`` line on stderr and exit 2.
"""

from __future__ import annotations

import argparse
import gc
import sys
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:
    from repro.runtime import ResultCache, SweepExecutor
    from repro.runtime.sweeps import SweepSpec

# The report verb's engine -- numpy, the device models, the metrics
# layer -- loads with this module: ``repro report`` is how the paper's
# numbers reach a user, and perfbench's traced report op counts
# ``import repro.cli`` as its import layer and wraps the engine's calls
# before ``main`` runs.  Every other verb imports what it uses inside
# its ``cmd_*`` function.
from repro.errors import AnalysisError, ObservabilityError, ReproError
from repro.metrics import build_report, collect_provenance
from repro.observability.ledger import RunLedger
from repro.observability.live import open_event_stream
from repro.runtime.sweeps import MIN_LANE_SAMPLES

__all__ = ["entry", "main"]


def _ledger_append(
    kind: str,
    payload: dict[str, object],
    design: str | None,
    ledger_dir: str | None,
) -> None:
    """Append one run-ledger entry; never fail the run over bookkeeping."""
    ledger = RunLedger(ledger_dir)
    try:
        entry = ledger.append(kind, payload, design=design)
    except (ObservabilityError, OSError) as exc:
        print(f"ledger: not recorded ({exc})", file=sys.stderr)
        return
    if entry is None:
        print(f"ledger: identical entry already in {ledger.path}")
    else:
        print(f"ledger: {entry.entry_id[:19]} appended to {ledger.path}")


def cmd_tone(
    design: str,
    title: str,
    lines: tuple[tuple[str, str, str], ...],
    n_samples: int,
) -> None:
    """Measure a design at its paper operating point; print the paper's table.

    ``lines`` holds one (quantity, paper value, measured attribute) per
    row; the attribute names a dB figure of the bench measurement.
    """
    from repro.designs import resolve
    from repro.reporting.tables import Table
    from repro.systems import TestBench

    entry = resolve(design)
    point = entry.point
    bench = TestBench(
        sample_rate=point.sample_rate,
        n_samples=n_samples,
        bandwidth=point.bandwidth,
    )
    result = bench.measure(
        entry.build(), amplitude=point.amplitude, frequency=point.frequency
    )
    table = Table(title, ("quantity", "paper", "measured"))
    for quantity, paper, attribute in lines:
        table.add_row(quantity, paper, f"{getattr(result, attribute):.1f} dB")
    print(table.render())


def cmd_fig7(n_samples: int) -> None:
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
    min_severity: str,
    strict: bool,
    select: str | None,
    ignore: str | None,
    baseline: str | None,
    no_baseline: bool,
    json_path: str | None,
) -> int:
    """Statically check source files for determinism/lowerability contracts."""
    from repro.errors import ConfigurationError
    from repro.findings import Severity
    from repro.staticcheck import run_lint

    def split_codes(raw: str | None) -> list[str] | None:
        if raw is None:
            return None
        return [code.strip() for code in raw.split(",") if code.strip()]

    if no_baseline:
        baseline = None
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
    n_samples: int,
    overdrive: float,
    supply: float | None,
    json_path: str | None,
    strict: bool,
) -> int:
    """Run a traced simulation; print span, probe and event tables."""
    from repro.designs import resolve
    from repro.systems import TestBench
    from repro.telemetry import TelemetrySession, export_jsonl

    entry = resolve(design)
    point = entry.point
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


def _sweep_parts(
    design: str,
    n_samples: int,
    levels: list[float] | None,
    jobs: int,
    cache: bool,
    cache_dir: str | None,
) -> tuple[SweepSpec, SweepExecutor, ResultCache | None]:
    """Return the spec, executor and result cache of a ``sweep``/``stats`` run."""
    from repro.runtime import ResultCache, SweepExecutor
    from repro.runtime.sweeps import DEFAULT_LEVELS_DB, sweep_spec_for_design

    spec = sweep_spec_for_design(
        design,
        n_samples=2 * n_samples,  # spec halves the main FFT length
        levels_db=tuple(levels) if levels else DEFAULT_LEVELS_DB,
    )
    return spec, SweepExecutor(jobs=jobs), ResultCache(cache_dir) if cache else None


def cmd_sweep(
    design: str,
    n_samples: int,
    levels: list[float] | None,
    jobs: int,
    cache: bool,
    cache_dir: str | None,
    json_path: str | None,
    profile: bool,
    events: str | None,
    follow: bool,
    ledger: bool,
    ledger_dir: str | None,
) -> int:
    """Run a dynamic-range sweep through the parallel batch engine."""
    import json

    from repro.analysis.fitting import dynamic_range_from_sweep
    from repro.metrics.spectral import db_to_bits
    from repro.observability.instruments import InstrumentRegistry, use_registry
    from repro.reporting.tables import Table
    from repro.runtime.sweeps import run_sweep

    spec, executor, result_cache = _sweep_parts(
        design, n_samples, levels, jobs, cache, cache_dir
    )
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
                executor=executor,
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
        from repro.outputs import output_path

        output_path(json_path).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"sweep written to {json_path}")
    if ledger:
        _ledger_append("sweep", payload, spec.design, ledger_dir)
    return 0


def cmd_stats(
    design: str | None,
    n_samples: int,
    levels: list[float] | None,
    jobs: int,
    cache: bool,
    cache_dir: str | None,
    json_path: str | None,
    diff: list[str] | None,
    strict: bool,
    prometheus: bool,
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
        current = load_stats_json(diff[0])
        baseline = load_stats_json(diff[1])
        report = diff_snapshots(current, baseline)
        print(report.render_table())
        print(report.summary())
        return report.exit_code(strict=strict)

    if design is None:
        raise ConfigurationError("a design is required unless --diff is given")

    from repro.runtime.sweeps import run_sweep

    spec, executor, result_cache = _sweep_parts(
        design, n_samples, levels, jobs, cache, cache_dir
    )
    # A fresh registry means the printed counts describe exactly this
    # run -- worker snapshots merge into it across the process boundary.
    registry = InstrumentRegistry()
    with use_registry(registry):
        run_sweep(spec, executor=executor, cache=result_cache)
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
    n_samples: int,
    sweep: bool,
    jobs: int,
    cache: bool,
    cache_dir: str | None,
    json_path: str | None,
) -> int:
    """Profile a design report (or a sweep-spec JSON): where time went."""
    import json

    from repro.observability.profile import (
        aggregate_profile,
        collapsed_stacks,
        render_profile_table,
    )
    from repro.observability.stats import PROFILE_SCHEMA
    from repro.outputs import output_path
    from repro.telemetry.export import span_records
    from repro.telemetry.session import TelemetrySession

    if target.endswith(".json"):
        from repro.runtime import ResultCache, SweepExecutor
        from repro.runtime.sweeps import run_sweep

        spec = _sweep_spec_from_json(target)
        session = TelemetrySession(spec.design)
        run_sweep(
            spec,
            executor=SweepExecutor(jobs=jobs),
            cache=ResultCache(cache_dir) if cache else None,
            telemetry=session,
        )
    else:
        session = TelemetrySession(target)
        build_report(
            target,
            n_samples=n_samples,
            sweep=sweep,
            jobs=jobs,
            use_cache=cache,
            cache_dir=cache_dir,
            session=session,
        )

    rows = aggregate_profile(session.roots)
    print(session.render_span_tree())
    print(render_profile_table(rows))
    if json_path is not None:
        document: dict[str, object] = {
            "schema": PROFILE_SCHEMA,
            "target": target,
            "rows": [row.as_dict() for row in rows],
            "collapsed_stacks": collapsed_stacks(session.roots),
            "spans": span_records(session.roots),
        }
        output_path(json_path).write_text(json.dumps(document, indent=2) + "\n")
        print(f"profile written to {json_path}")
    return 0


def cmd_bench_gate(
    telemetry_path: str,
    baseline_path: str,
    tolerance: float | None,
    ledger: bool,
    ledger_dir: str | None,
) -> int:
    """Check benchmark telemetry against the committed wall-time baseline."""
    from repro.metrics import run_bench_gate

    report = run_bench_gate(
        telemetry_path, baseline_path, tolerance=tolerance
    )
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
        _ledger_append("bench-gate", payload, None, ledger_dir)
    return report.exit_code()


def cmd_history(design: str, limit: int, ledger_dir: str | None) -> int:
    """Show a design's run-ledger trajectory (metrics and entries)."""
    from repro.designs import resolve
    from repro.observability.trend import render_history

    canonical = resolve(design).name
    ledger = RunLedger(ledger_dir)
    print(render_history(ledger, canonical, limit=limit))
    known = ledger.designs()
    if canonical not in known and known:
        print(f"(designs with history: {', '.join(known)})")
    return 0


def cmd_trend(
    design: str | None,
    window: int | None,
    sustain: int | None,
    threshold: float | None,
    strict: bool,
    json_path: str | None,
    ledger_dir: str | None,
) -> int:
    """Gate on sustained cross-run drift in the run ledger."""
    from repro.designs import resolve
    from repro.observability.trend import (
        DEFAULT_SUSTAIN,
        DEFAULT_THRESHOLD,
        DEFAULT_WINDOW,
        analyze_ledger,
    )

    report = analyze_ledger(
        RunLedger(ledger_dir),
        design=None if design is None else resolve(design).name,
        window=window if window is not None else DEFAULT_WINDOW,
        sustain=sustain if sustain is not None else DEFAULT_SUSTAIN,
        threshold=threshold if threshold is not None else DEFAULT_THRESHOLD,
    )
    print(report.render_table())
    print(report.summary())
    if json_path is not None:
        target = report.write_json(json_path)
        print(f"trend report written to {target}")
    return report.exit_code(strict=strict)


def cmd_report(
    design: str,
    n_samples: int,
    sweep: bool,
    noise_scale: float,
    mismatch: float,
    jobs: int,
    engine: str,
    profile: bool,
    cache: bool,
    cache_dir: str | None,
    json_path: str | None,
    markdown_path: str | None,
    events: str | None,
    follow: bool,
    ledger: bool,
    ledger_dir: str | None,
    argv: list[str] | None,
) -> int:
    """Measure a design and emit its paper-metrics run manifest."""
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
        from repro.outputs import output_path

        output_path(markdown_path).write_text(manifest.render_markdown())
        print(f"markdown report written to {markdown_path}")
    if ledger:
        _ledger_append("report", manifest.as_dict(), manifest.design, ledger_dir)
    return 0


def cmd_compare(manifest: str, baseline: str | None, strict: bool) -> int:
    """Diff a run manifest against a golden baseline; exit 1 on regression."""
    from repro.metrics import compare_manifests, load_manifest

    current = load_manifest(manifest)
    golden = load_manifest(
        baseline
        if baseline is not None
        else f"baselines/{current.design}.json"
    )
    report = compare_manifests(current, golden)
    print(report.render_table())
    print(report.summary())
    return report.exit_code(strict=strict)


def cmd_serve(
    host: str,
    port: int,
    jobs: int,
    workers: int,
    max_pending: int,
    cache_dir: str | None,
    max_bytes: int | None,
    ledger: bool,
    ledger_dir: str | None,
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
    url: str,
    n_samples: int | None,
    sweep: bool,
    noise_scale: float,
    mismatch: float,
    wait: bool,
    timeout: float,
    output: str | None,
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
        if n_samples is not None:
            request["n_samples"] = n_samples

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
        from repro.outputs import output_path

        output_path(output).write_bytes(payload)
        print(f"result written to {output}", file=sys.stderr)
    else:
        sys.stdout.write(payload.decode("utf-8"))
    return 0


# -- options ----------------------------------------------------------------

#: An option adds arguments, or fixed handler values, to a verb's parser.
Option = Callable[[argparse.ArgumentParser], object]


def _arg(*flags: str, **kwargs: Any) -> Option:
    """Return an option adding one argument, spelled as ``add_argument`` takes it."""
    return lambda sub: sub.add_argument(*flags, **kwargs)


def _fixed(**values: Any) -> Option:
    """Return an option passing fixed keyword values to the verb's handler."""
    return lambda sub: sub.set_defaults(**values)


def _count(low: int, high: int | None = None) -> Callable[[str], int]:
    """Return an argparse type accepting the integers ``low`` to ``high``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low or (high is not None and value > high):
            bound = f">= {low}" if high is None else f"in {low}..{high}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    # argparse names the type when int() refuses: "invalid int value".
    parse.__name__ = "int"
    return parse


_positive = _count(1)

#: (--fast, full) sample counts of a single-tone run and of a sweep lane.
_RUN_LENGTHS = (1 << 14, 1 << 16)
_LANE_LENGTHS = (MIN_LANE_SAMPLES, 1 << 15)


def _sample_length(
    lengths: tuple[int, int], samples: bool = True, floor: int | None = None
) -> Option:
    """Return the ``--fast``/``--samples`` group that sets ``n_samples``.

    ``--fast`` picks the short length and no flag the full one;
    ``--samples N`` overrides both, in either order (:func:`main`
    folds it in).  With a ``floor``, a smaller ``N`` is a usage error.
    """
    short, full = lengths

    def add(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--fast",
            dest="n_samples",
            action="store_const",
            const=short,
            default=full,
            help=f"use a shorter run ({short >> 10}K samples instead of {full >> 10}K)",
        )
        if samples:
            sub.add_argument(
                "--samples",
                type=int if floor is None else _count(floor),
                default=None,
                metavar="N",
                help="analysed samples per run or sweep lane (overrides --fast)",
            )

    return add


def _cache(toggle: bool = True) -> Option:
    """Return the result-cache group; ``toggle`` adds ``--no-cache``."""

    def add(sub: argparse.ArgumentParser) -> None:
        if toggle:
            sub.add_argument(
                "--no-cache",
                dest="cache",
                action="store_false",
                help="skip the on-disk sweep result cache",
            )
        sub.add_argument(
            "--cache-dir",
            default=None,
            metavar="DIR",
            help="sweep result cache directory "
            "(default: $REPRO_CACHE_DIR or .repro-cache)",
        )

    return add


def _ledger(toggle: bool = True) -> Option:
    """Return the run-ledger group; ``toggle`` adds ``--no-ledger``."""

    def add(sub: argparse.ArgumentParser) -> None:
        if toggle:
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

    return add


_jobs = _arg(
    "--jobs",
    type=_positive,
    default=1,
    metavar="N",
    help="worker processes per sweep (bit-identical results at any value; default: 1)",
)


def _events(sub: argparse.ArgumentParser) -> None:
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


def _degradation(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--noise-scale",
        type=float,
        default=1.0,
        metavar="X",
        help="scale the cells' thermal noise by X (degradation knob)",
    )
    sub.add_argument(
        "--mismatch",
        type=float,
        default=0.0,
        metavar="M",
        help="inject a half-circuit gain mismatch of M (degradation knob)",
    )


_no_sweep = _arg(
    "--no-sweep",
    dest="sweep",
    action="store_false",
    help="skip the dynamic-range sweep (modulator designs)",
)


_levels = _arg(
    "--levels",
    type=float,
    nargs="+",
    default=None,
    metavar="DB",
    help="input levels in dB re full scale (default: the report sweep)",
)


_min_severity = _arg(
    "--min-severity",
    choices=["info", "warning", "error"],
    default="info",
    help="hide findings below this severity (default: %(default)s)",
)


def _runnable_design(sub: argparse.ArgumentParser) -> None:
    from repro.designs import design_names

    sub.add_argument(
        "design", choices=design_names(runnable=True), help="design to run"
    )


def _design_or_all(sub: argparse.ArgumentParser) -> None:
    from repro.designs import design_names

    sub.add_argument(
        "design",
        choices=design_names() + ["all"],
        help="design to check, or 'all'",
    )


def _json(text: str) -> Option:
    """Return the ``--json PATH`` output option, helped by ``text``."""
    return _arg("--json", dest="json_path", default=None, metavar="PATH", help=text)


_strict = _arg("--strict", action="store_true", help="also exit non-zero on warnings")

#: ``headroom`` and ``tradeoff`` run no simulation; they accept
#: ``--fast`` like every other table and ignore it.
_unused_fast = _arg("--fast", action="store_true", help="use shorter FFTs for a quick look")

#: The raw command line, which ``report`` stamps into its provenance
#: (:func:`main` fills it in).
_raw_argv = _fixed(argv=None)

#: Every verb, in ``--list`` and ``--help`` order: its name, one-line
#: help, handler and options.  :func:`main` calls the handler with the
#: parsed options as keyword arguments named by their dests.
VERBS: tuple[tuple[str, str, Callable[..., int | None], tuple[Option, ...]], ...] = (
    ("fig5", "Print the Fig. 5 modulator measurement.", cmd_tone, (
        _sample_length(_RUN_LENGTHS, samples=False),
        _fixed(
            design="modulator2",
            title="Fig. 5: SI modulator, 2 kHz 3 uA (-6 dB)",
            lines=(
                ("THD", "-61 dB", "thd_db"),
                ("SNR (10 kHz)", "58 dB", "snr_db"),
                ("SNDR", "-", "sndr_db"),
            ),
        ),
    )),
    ("fig6", "Print the Fig. 6 chopper-modulator measurement.", cmd_tone, (
        _sample_length(_RUN_LENGTHS, samples=False),
        _fixed(
            design="chopper",
            title="Fig. 6(b): chopper-stabilised SI modulator (post-chopper)",
            lines=(("THD", "-62 dB", "thd_db"), ("SNR (10 kHz)", "58 dB", "snr_db")),
        ),
    )),
    ("fig7", "Print the Fig. 7 sweep and the extracted dynamic range.", cmd_fig7, (
        _sample_length(_LANE_LENGTHS, samples=False),
    )),
    ("headroom", "Print the Eqs. (1)-(2) supply sweep.", cmd_headroom, (
        _unused_fast,
    )),
    ("table1", "Print the Table 1 delay-line measurements.", cmd_tone, (
        _sample_length(_RUN_LENGTHS, samples=False),
        _fixed(
            design="delay-line",
            title="Table 1: delay line at 5 MHz, 8 uA / 5 kHz",
            lines=(
                ("THD", "-50 dB", "thd_db"),
                ("SNR (rms conv.)", "50 dB (p-p conv.)", "snr_db"),
            ),
        ),
    )),
    ("tradeoff", "Print the SI-vs-SC dynamic-range trade-off table.", cmd_tradeoff, (
        _unused_fast,
    )),
    ("erc", "Statically check a named design against the ERC rule set.", cmd_erc, (
        _design_or_all, _min_severity, _strict,
    )),
    ("lint", "Statically check source files for determinism/lowerability contracts.",
     cmd_lint, (
        _arg(
            "paths",
            nargs="*",
            default=["src"],
            help="files or directories to lint (default: src)",
        ),
        _min_severity,
        _strict,
        _arg(
            "--select",
            default=None,
            metavar="CODES",
            help="comma-separated rule codes to run exclusively (e.g. SC001,SC010)",
        ),
        _arg(
            "--ignore",
            default=None,
            metavar="CODES",
            help="comma-separated rule codes to skip",
        ),
        _arg(
            "--baseline",
            default="baselines/staticcheck.json",
            metavar="PATH",
            help="suppression baseline (default: %(default)s)",
        ),
        _arg(
            "--no-baseline",
            action="store_true",
            help="ignore the suppression baseline entirely",
        ),
        _json("also write the findings as a JSON document"),
    )),
    ("trace", "Run a traced simulation; print span, probe and event tables.", cmd_trace, (
        _runnable_design,
        _sample_length(_RUN_LENGTHS),
        _arg(
            "--overdrive",
            type=float,
            default=1.0,
            metavar="X",
            help="scale the nominal stimulus amplitude by X (default: 1.0)",
        ),
        _arg(
            "--supply",
            type=float,
            default=None,
            metavar="V",
            help="supply voltage for the dynamic headroom rule (default: 3.3)",
        ),
        _json("also export the trace as JSONL to PATH"),
        _arg("--strict", action="store_true", help="also exit non-zero on WARNING events"),
    )),
    ("report", "Measure a design and emit its paper-metrics run manifest.", cmd_report, (
        _runnable_design,
        _sample_length(_RUN_LENGTHS),
        _no_sweep,
        _degradation,
        _jobs,
        _arg(
            "--engine",
            choices=["auto", "scalar", "kernel"],
            default="auto",
            help="execution engine for the measurement and sweep "
            "(bit-identical values on every rung; stamped into the "
            "manifest's provenance so timings stay attributable; "
            "default: auto)",
        ),
        _arg(
            "--profile",
            action="store_true",
            help="print the traced span tree (wall time per stage) after "
            "the manifest",
        ),
        _cache(),
        _json("also write the run manifest as JSON to PATH"),
        _arg(
            "--markdown",
            dest="markdown_path",
            default=None,
            metavar="PATH",
            help="also write a Markdown report to PATH",
        ),
        _events,
        _ledger(),
        _raw_argv,
    )),
    ("compare", "Diff a run manifest against a golden baseline; exit 1 on regression.",
     cmd_compare, (
        _arg("manifest", help="run manifest JSON to check (from `repro report --json`)"),
        _arg(
            "--baseline",
            default=None,
            metavar="PATH",
            help="golden manifest to diff against "
            "(default: baselines/<design>.json)",
        ),
        _arg(
            "--strict",
            action="store_true",
            help="also exit non-zero on warnings and config mismatches",
        ),
    )),
    ("sweep", "Run a dynamic-range sweep through the parallel batch engine.", cmd_sweep, (
        _runnable_design,
        _sample_length(_LANE_LENGTHS, floor=MIN_LANE_SAMPLES),
        _levels,
        _jobs,
        _cache(),
        _json("also write the sweep table as JSON to PATH"),
        _arg(
            "--profile",
            action="store_true",
            help="print the merged span tree (parent + grafted worker "
            "shards) and the run's instrument counters",
        ),
        _events,
        _ledger(),
    )),
    ("stats", "Run a sweep and print its instrument counters, or diff two snapshots.",
     cmd_stats, (
        _arg(
            "design",
            nargs="?",
            default=None,
            help="design to sweep and account (omit with --diff)",
        ),
        _sample_length(_LANE_LENGTHS, floor=MIN_LANE_SAMPLES),
        _levels,
        _jobs,
        _cache(),
        _json("write the instrument snapshot as a stats document to PATH"),
        _arg(
            "--prom",
            dest="prometheus",
            action="store_true",
            help="also print the Prometheus text exposition",
        ),
        _arg(
            "--diff",
            nargs=2,
            default=None,
            metavar=("CURRENT", "BASELINE"),
            help="diff two stats documents instead of running a sweep "
            "(exit 1 when a gated counter increased)",
        ),
        _arg(
            "--strict",
            action="store_true",
            help="with --diff, also exit non-zero on warnings",
        ),
    )),
    ("profile", "Profile a design report (or a sweep-spec JSON): where time went.",
     cmd_profile, (
        _arg(
            "target",
            help="design to profile, or a sweep-spec JSON file "
            "(a file of SweepSpec fields; detected by the .json suffix)",
        ),
        _sample_length(_RUN_LENGTHS),
        _no_sweep,
        _jobs,
        _cache(),
        _json(
            "also write the profile document (rows, collapsed stacks, "
            "span tree) as JSON to PATH"
        ),
    )),
    ("bench-gate", "Check benchmark telemetry against the committed wall-time baseline.",
     cmd_bench_gate, (
        _arg(
            "--telemetry",
            dest="telemetry_path",
            default="BENCH_telemetry.json",
            metavar="PATH",
            help="benchmark telemetry document (default: %(default)s)",
        ),
        _arg(
            "--baseline",
            dest="baseline_path",
            default="baselines/bench.json",
            metavar="PATH",
            help="committed wall-time baseline (default: %(default)s)",
        ),
        _arg(
            "--tolerance",
            type=float,
            default=None,
            metavar="FRAC",
            help="fractional wall-time headroom (default: the baseline's, 0.25)",
        ),
        _ledger(),
    )),
    ("history", "Show a design's run-ledger trajectory (metrics and entries).",
     cmd_history, (
        _arg("design", help="design whose ledger trajectory to show"),
        _arg(
            "--limit",
            type=_positive,
            default=10,
            metavar="N",
            help="show the last N entries (default: 10)",
        ),
        _ledger(toggle=False),
    )),
    ("trend", "Gate on sustained cross-run drift in the run ledger.", cmd_trend, (
        _arg(
            "design",
            nargs="?",
            default=None,
            help="restrict the gate to one design's series (default: all)",
        ),
        _arg(
            "--window",
            type=int,
            default=None,
            metavar="N",
            help="rolling history window per series (default: 10)",
        ),
        _arg(
            "--sustain",
            type=int,
            default=None,
            metavar="N",
            help="runs that must all drift before REGRESS (default: 3)",
        ),
        _arg(
            "--threshold",
            type=float,
            default=None,
            metavar="X",
            help="drift threshold in robust scale units (default: 4.0)",
        ),
        _arg(
            "--strict",
            action="store_true",
            help="also exit non-zero on single-run warnings",
        ),
        _json("also write the trend report as JSON to PATH"),
        _ledger(toggle=False),
    )),
    ("serve", "Run the simulation service over HTTP until interrupted.", cmd_serve, (
        _arg("--host", default="127.0.0.1", help="bind address (default %(default)s)"),
        _arg(
            "--port",
            type=_count(0, 65535),
            default=8765,
            help="bind port; 0 picks a free one (default %(default)s)",
        ),
        _jobs,
        _arg(
            "--workers",
            type=int,
            default=1,
            metavar="N",
            help="queue worker threads (default 1: serialized simulations)",
        ),
        _arg(
            "--max-pending",
            dest="max_pending",
            type=int,
            default=64,
            metavar="N",
            help="queued-job backpressure limit (HTTP 429 past it)",
        ),
        _cache(toggle=False),
        _arg(
            "--max-bytes",
            dest="max_bytes",
            type=int,
            default=None,
            metavar="BYTES",
            help="LRU byte budget of the artifact store (default: unbounded)",
        ),
        _ledger(),
    )),
    ("submit", "Submit a design (or sweep-spec JSON) to a running service.", cmd_submit, (
        _arg("target", help="design name, or a sweep-spec JSON path"),
        _arg(
            "--url",
            default="http://127.0.0.1:8765",
            help="service base URL (default %(default)s)",
        ),
        _arg(
            "--samples",
            dest="n_samples",
            type=int,
            default=None,
            metavar="N",
            help="FFT length for a report job (server default 16K)",
        ),
        _no_sweep,
        _degradation,
        _arg(
            "--wait",
            action="store_true",
            help="block until the job finishes and emit its result",
        ),
        _arg(
            "--timeout",
            type=float,
            default=300.0,
            metavar="S",
            help="--wait deadline in seconds (default %(default)g)",
        ),
        _arg(
            "--output",
            "-o",
            default=None,
            metavar="PATH",
            help="write the result bytes to PATH instead of stdout",
        ),
    )),
)


def build_parser() -> argparse.ArgumentParser:
    """Return the argument parser with one sub-command per row of :data:`VERBS`."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate results from the DATE 1995 switched-current paper.",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available commands"
    )
    subparsers = parser.add_subparsers(metavar="command")
    for name, summary, handler, options in VERBS:
        sub = subparsers.add_parser(name, help=summary, description=summary)
        for option in options:
            option(sub)
        sub.set_defaults(run=handler)
    return parser


def list_commands() -> str:
    """Return the --list text: every verb with its one-line help."""
    return "\n".join(f"  {name:10s} {summary}" for name, summary, _, _ in VERBS)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Any input a verb cannot use -- an unknown design, an unreadable
    document, a knob the model refuses, a record too short for the
    analysis window -- raises a :class:`~repro.errors.ReproError`, and
    is refused here with one ``error:`` line and exit 2.
    """
    options = vars(build_parser().parse_args(argv))
    run = options.pop("run", None)
    if options.pop("list") or run is None:
        print(list_commands())
        return 0
    samples = options.pop("samples", None)
    if samples is not None:  # --samples overrides --fast, in either order
        options["n_samples"] = samples
    if "argv" in options:
        options["argv"] = None if argv is None else ["repro", *argv]
    try:
        return run(**options) or 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


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
