"""Cross-process runtime observability.

The legibility layer over :mod:`repro.runtime` and
:mod:`repro.telemetry` (stdlib + numpy only):

* :mod:`repro.observability.instruments` -- registries of named
  counters, gauges and fixed-bucket histograms with labeled series,
  snapshot/merge semantics and JSON / Prometheus-style text
  exposition; the process registry, and context-local scopes that give
  each report and sweep chunk a registry of its own;
* :mod:`repro.observability.profile` -- collapse any span forest into
  a self/total-time table and collapsed-stack flamegraph text;
* :mod:`repro.observability.stats` -- provenance-stamped snapshot
  documents and the ``repro stats --diff`` verdict gate;
* :mod:`repro.observability.ledger` -- the append-only, content-
  addressed JSONL run ledger every report/sweep/bench run appends to;
* :mod:`repro.observability.trend` -- rolling median/MAD drift
  detection over the ledger, behind ``repro history`` / ``repro trend``;
* :mod:`repro.observability.live` -- bounded-overhead live event
  streaming (span/instrument JSONL) and the service's tailable buffer.

See ``docs/OBSERVABILITY.md`` for the instrument naming convention and
the cross-process propagation contract.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.observability.instruments import (
        DEFAULT_BUCKETS,
        SNAPSHOT_SCHEMA,
        Counter,
        Gauge,
        Histogram,
        InstrumentRegistry,
        get_registry,
        reset_registry,
        set_registry,
        use_registry,
    )
    from repro.observability.ledger import (
        LEDGER_SCHEMA,
        LedgerEntry,
        RunLedger,
        entry_id_for,
    )
    from repro.observability.live import (
        EVENT_SCHEMA,
        EventBuffer,
        EventStream,
        open_event_stream,
    )
    from repro.observability.profile import (
        ProfileRow,
        aggregate_profile,
        collapsed_stacks,
        render_profile_table,
    )
    from repro.observability.stats import (
        GATED_COUNTERS,
        PROFILE_SCHEMA,
        STATS_SCHEMA,
        InstrumentDiff,
        StatsDiffReport,
        diff_snapshots,
        load_stats_json,
        write_stats_json,
    )
    from repro.observability.trend import (
        TREND_SCHEMA,
        MetricSeries,
        TrendFinding,
        TrendReport,
        analyze_ledger,
        analyze_series,
        collect_series,
        render_history,
        sparkline,
    )

_EXPORTS = {
    "repro.observability.instruments": (
        "DEFAULT_BUCKETS",
        "SNAPSHOT_SCHEMA",
        "Counter",
        "Gauge",
        "Histogram",
        "InstrumentRegistry",
        "get_registry",
        "reset_registry",
        "set_registry",
        "use_registry",
    ),
    "repro.observability.ledger": (
        "LEDGER_SCHEMA",
        "LedgerEntry",
        "RunLedger",
        "entry_id_for",
    ),
    "repro.observability.live": (
        "EVENT_SCHEMA",
        "EventBuffer",
        "EventStream",
        "open_event_stream",
    ),
    "repro.observability.profile": (
        "ProfileRow",
        "aggregate_profile",
        "collapsed_stacks",
        "render_profile_table",
    ),
    "repro.observability.stats": (
        "GATED_COUNTERS",
        "PROFILE_SCHEMA",
        "STATS_SCHEMA",
        "InstrumentDiff",
        "StatsDiffReport",
        "diff_snapshots",
        "load_stats_json",
        "write_stats_json",
    ),
    "repro.observability.trend": (
        "TREND_SCHEMA",
        "MetricSeries",
        "TrendFinding",
        "TrendReport",
        "analyze_ledger",
        "analyze_series",
        "collect_series",
        "render_history",
        "sparkline",
    ),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
