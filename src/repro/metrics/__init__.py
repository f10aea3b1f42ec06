"""repro.metrics: the paper-metrics registry and regression gate.

Closes the evaluation loop the telemetry layer opened: every headline
number of the paper -- Table 1 delay-line errors, Table 2 modulator
dynamic range and power, the Figs. 5-7 spectral figures -- is declared
once in a typed :class:`MetricRegistry`, extracted from runs by the
functions in :mod:`repro.metrics.extractors`, serialized into git-SHA
stamped :class:`RunManifest` documents, and diffed against committed
golden baselines (and the paper's own published values) by
:func:`compare_manifests` -- the engine behind ``repro report`` and
``repro compare``.

Typical use::

    from repro.metrics import build_report, compare_manifests, load_manifest

    manifest = build_report("modulator2", n_samples=1 << 14)
    report = compare_manifests(manifest, load_manifest("baselines/modulator2.json"))
    print(report.render_table())
    raise SystemExit(report.exit_code(strict=True))
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.findings import DiffStatus
    from repro.metrics.benchgate import (
        BenchGateReport,
        BenchGateRow,
        compare_bench_telemetry,
        run_bench_gate,
    )
    from repro.metrics.compare import CompareReport, MetricDiff, compare_manifests
    from repro.metrics.extractors import (
        delay_line_error_records,
        fit_delay_line_error,
        sweep_records,
        telemetry_event_records,
        throughput_records,
        tone_records,
    )
    from repro.metrics.manifest import (
        BENCH_SCHEMA,
        MANIFEST_SCHEMA,
        RunManifest,
        load_manifest,
        manifest_from_registry,
        write_bench_telemetry,
    )
    from repro.metrics.provenance import Provenance, collect_provenance, git_sha
    from repro.metrics.records import Direction, MetricRecord, MetricSpec
    from repro.metrics.registry import MetricRegistry, registry_for
    from repro.metrics.report import build_report
    from repro.metrics.spectral import (
        bits_to_db,
        db_to_bits,
        enob_bits,
        full_scale_reference_power,
        harmonic_visibility_db,
        spectrum_view,
    )

_EXPORTS = {
    "repro.findings": ("DiffStatus",),
    "repro.metrics.benchgate": (
        "BenchGateReport",
        "BenchGateRow",
        "compare_bench_telemetry",
        "run_bench_gate",
    ),
    "repro.metrics.compare": ("CompareReport", "MetricDiff", "compare_manifests"),
    "repro.metrics.extractors": (
        "tone_records",
        "sweep_records",
        "fit_delay_line_error",
        "delay_line_error_records",
        "telemetry_event_records",
        "throughput_records",
    ),
    "repro.metrics.manifest": (
        "RunManifest",
        "MANIFEST_SCHEMA",
        "BENCH_SCHEMA",
        "manifest_from_registry",
        "load_manifest",
        "write_bench_telemetry",
    ),
    "repro.metrics.provenance": ("Provenance", "collect_provenance", "git_sha"),
    "repro.metrics.records": ("Direction", "MetricSpec", "MetricRecord"),
    "repro.metrics.registry": ("MetricRegistry", "registry_for"),
    "repro.metrics.report": ("build_report",),
    "repro.metrics.spectral": (
        "db_to_bits",
        "bits_to_db",
        "enob_bits",
        "full_scale_reference_power",
        "harmonic_visibility_db",
        "spectrum_view",
    ),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
