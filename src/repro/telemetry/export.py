"""JSONL trace exporter.

One line per record, so traces stream, concatenate and grep cleanly --
the format CI archives as a workflow artifact and external tooling
(jq, pandas ``read_json(lines=True)``) consumes directly.

Record types, in file order:

* ``session`` -- header: session name, counts, pass/fail;
* ``span`` -- one per span, depth-first, with ``id``/``parent`` links;
* ``probe`` -- one per probe with the full streaming statistics;
* ``event`` -- one per dynamic event of the last rule evaluation.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.outputs import output_path
from repro.telemetry.session import TelemetrySession
from repro.telemetry.spans import Span, jsonable

__all__ = ["export_jsonl", "span_records"]


def span_records(roots: list[Span]) -> list[dict[str, object]]:
    """Flatten a span forest into records with id/parent links.

    The one span encoding the trace JSONL and ``repro profile --json``
    both write: depth-first, each record naming its parent's ``id``
    (``None`` for a root).
    """
    records: list[dict[str, object]] = []
    next_id = 0

    def visit(span: Span, parent_id: int | None) -> None:
        nonlocal next_id
        span_id = next_id
        next_id += 1
        records.append(
            {
                "type": "span",
                "id": span_id,
                "parent": parent_id,
                "name": span.name,
                "duration_s": span.duration_s,
                "samples": span.samples,
                "samples_per_second": span.samples_per_second,
                "attrs": {key: jsonable(value) for key, value in span.attrs.items()},
            }
        )
        for child in span.children:
            visit(child, span_id)

    for root in roots:
        visit(root, None)
    return records


def export_jsonl(session: TelemetrySession, path: str | Path) -> Path:
    """Write the session's spans, probes and events as JSONL.

    The session header carries a provenance stamp (git SHA, timestamp,
    interpreter/numpy versions, argv) so an archived trace can always
    be traced back to the tree and process that produced it.

    Returns the resolved output path.
    """
    # Imported lazily: repro.metrics imports repro.telemetry modules at
    # package-import time, so a module-level import would be circular.
    from repro.metrics.provenance import collect_provenance

    records: list[dict[str, object]] = [
        {
            "type": "session",
            "name": session.name,
            "n_spans": sum(1 for root in session.roots for _ in root.walk()),
            "n_probes": len(session.probes),
            "n_events": len(session.events),
            "ok": session.gate.ok,
            "provenance": collect_provenance().as_dict(),
        }
    ]
    records.extend(span_records(session.roots))
    for probe in session.probes.values():
        record = probe.as_record()
        record["meta"] = {
            key: jsonable(value)
            for key, value in record["meta"].items()  # type: ignore[union-attr]
        }
        records.append({"type": "probe", **record})
    for event in session.events:
        records.append(
            {
                "type": "event",
                "rule": event.rule,
                "severity": event.severity.name,
                "source": event.source,
                "sample_index": event.sample_index,
                "message": event.message,
            }
        )
    target = output_path(path)
    with target.open("w") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
    return target
