"""Reporting: paper-style tables, figure series and comparison records."""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.reporting.tables import Table, render_table
    from repro.reporting.figures import ascii_plot, spectrum_series, sweep_series
    from repro.reporting.records import ComparisonRecord, PaperComparison
    from repro.reporting.export import (
        read_series_csv,
        write_comparison_json,
        write_series_csv,
    )

_EXPORTS = {
    "repro.reporting.tables": ("render_table", "Table"),
    "repro.reporting.figures": ("spectrum_series", "sweep_series", "ascii_plot"),
    "repro.reporting.records": ("PaperComparison", "ComparisonRecord"),
    "repro.reporting.export": (
        "write_series_csv",
        "read_series_csv",
        "write_comparison_json",
    ),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
