"""Export helpers: CSV series and JSON records for external tooling.

The ASCII tables and plots serve the terminal; anyone regenerating the
paper's figures in a plotting package needs the raw series.  These
helpers write the spectrum/sweep series and the paper-vs-measured
records in standard formats.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
import numpy as np

from repro.errors import ConfigurationError
from repro.outputs import output_path
from repro.reporting.records import PaperComparison

__all__ = ["write_series_csv", "write_comparison_json", "read_series_csv"]


def write_series_csv(
    path: str | Path,
    columns: dict[str, np.ndarray],
) -> Path:
    """Write named, equal-length series as a CSV file.

    Parameters
    ----------
    path:
        Output file path.
    columns:
        Mapping from column name to a 1-D array; all arrays must share
        one length.

    Returns
    -------
    The resolved output path.

    Raises
    ------
    ConfigurationError
        If the mapping is empty or the lengths differ.
    """
    if not columns:
        raise ConfigurationError("columns must not be empty")
    arrays = {name: np.asarray(values).ravel() for name, values in columns.items()}
    lengths = {array.shape[0] for array in arrays.values()}
    if len(lengths) != 1:
        raise ConfigurationError(
            f"all columns must share one length, got {sorted(lengths)}"
        )
    target = output_path(path)
    with target.open("w", newline="") as handle:
        writer = csv.writer(handle)
        names = list(arrays)
        writer.writerow(names)
        for row in zip(*(arrays[name] for name in names)):
            writer.writerow([repr(float(value)) for value in row])
    return target


def read_series_csv(path: str | Path) -> dict[str, np.ndarray]:
    """Read back a CSV written by :func:`write_series_csv`.

    Raises
    ------
    ConfigurationError
        If the file is empty or malformed.
    """
    target = Path(path)
    with target.open() as handle:
        reader = csv.reader(handle)
        rows = list(reader)
    if len(rows) < 2:
        raise ConfigurationError(f"{target} has no data rows")
    header = rows[0]
    data = np.array([[float(cell) for cell in row] for row in rows[1:]])
    return {name: data[:, index] for index, name in enumerate(header)}


def write_comparison_json(
    path: str | Path,
    comparison: PaperComparison,
    metadata: dict[str, object] | None = None,
) -> Path:
    """Write a paper-vs-measured comparison as JSON.

    Parameters
    ----------
    path:
        Output file path.
    comparison:
        The filed records.
    metadata:
        Optional extra fields (operating point, seeds, ...).

    Returns
    -------
    The resolved output path.
    """
    # Imported lazily: repro.metrics imports repro.reporting helpers at
    # package-import time, so a module-level import would be circular.
    from repro.metrics.provenance import collect_provenance

    payload = {
        "provenance": collect_provenance().as_dict(),
        "records": [
            {
                "experiment": record.experiment,
                "quantity": record.quantity,
                "paper": record.paper_value,
                "measured": record.measured_value,
                "shape_holds": bool(record.shape_holds),
            }
            for record in comparison.records
        ],
        "all_shapes_hold": bool(comparison.all_shapes_hold),
    }
    if metadata:
        payload["metadata"] = metadata
    target = output_path(path)
    target.write_text(json.dumps(payload, indent=2))
    return target
