"""The persistent run ledger: the repo's memory of its own runs.

Every comparison before this module existed was against a *single*
golden baseline -- the repo had no trajectory.  The ledger fixes that:
an append-only JSONL file under ``.repro/ledger/`` that ``repro
report``, ``repro sweep``, ``repro bench-gate`` and the benchmark
harness automatically append to, one entry per run, each carrying the
run's payload (manifest, sweep table, bench record or gate verdict)
plus full provenance (git SHA, dirty flag, hostname, CPU count,
versions, argv).

Entries are **content-addressed**: the ``entry_id`` is the SHA-256 of
the entry's canonical JSON (everything except the id itself), so the
same measurement appended twice is stored once, and an entry can be
cited unambiguously across machines.  The file is only ever appended
to -- one ``json.dumps`` line per entry, written atomically via a
single buffered write -- and a torn trailing line (crash mid-append)
is skipped on read rather than poisoning the history.

The cross-run analytics in :mod:`repro.observability.trend` consume
this file; ``repro history <design>`` renders it.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from repro.errors import ObservabilityError

__all__ = [
    "LEDGER_SCHEMA",
    "LEDGER_ENV_DIR",
    "DEFAULT_LEDGER_DIRNAME",
    "LedgerEntry",
    "RunLedger",
    "entry_id_for",
]

#: Schema identifier of one ledger entry line.
LEDGER_SCHEMA = "repro.observability/ledger-entry/v1"

#: Environment variable overriding the default ledger directory.
LEDGER_ENV_DIR = "REPRO_LEDGER_DIR"

#: Default ledger directory, relative to the working directory.
DEFAULT_LEDGER_DIRNAME = os.path.join(".repro", "ledger")

#: Entry kinds the ledger currently stores.  The set is advisory --
#: unknown kinds load fine (future writers must not strand old readers).
KNOWN_KINDS = ("report", "sweep", "bench", "bench-gate")


def _canonical_json(payload: object) -> str:
    """Return the canonical (sorted, compact) JSON encoding."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def entry_id_for(
    kind: str, design: str | None, payload: Mapping[str, object]
) -> str:
    """Return the content address of an entry's identity-bearing parts.

    Provenance is deliberately *excluded* from the hash: the same
    measurement re-run at a later timestamp (or re-written with a
    richer provenance schema) is the same content.  What distinguishes
    runs in trend queries is the provenance stored *on* the entry, not
    the address.
    """
    identity = {"kind": kind, "design": design, "payload": dict(payload)}
    try:
        encoded = _canonical_json(identity).encode()
    except (TypeError, ValueError) as exc:
        raise ObservabilityError(
            f"ledger payload for kind {kind!r} is not JSON-serializable: {exc}"
        ) from exc
    return f"sha256:{hashlib.sha256(encoded).hexdigest()}"


@dataclass(frozen=True)
class LedgerEntry:
    """One immutable ledger line.

    Attributes
    ----------
    entry_id:
        Content address (``sha256:<hex>``) of kind+design+payload.
    kind:
        What produced the entry (``report``, ``sweep``, ``bench``,
        ``bench-gate``).
    design:
        Design label for design-scoped entries; None for e.g. a
        bench-gate verdict covering the whole suite.
    payload:
        The entry's document: a run manifest dict, a sweep table, a
        single benchmark telemetry record, or a gate verdict.
    provenance:
        The producing process's provenance block
        (:meth:`repro.metrics.provenance.Provenance.as_dict` output).
    """

    entry_id: str
    kind: str
    design: str | None
    payload: Mapping[str, object]
    provenance: Mapping[str, object]

    @property
    def timestamp(self) -> str:
        """Return the provenance timestamp (``"unknown"`` when absent)."""
        raw = self.provenance.get("timestamp")
        return raw if isinstance(raw, str) else "unknown"

    @property
    def git_sha(self) -> str:
        """Return the provenance git SHA (``"unknown"`` when absent)."""
        raw = self.provenance.get("git_sha")
        return raw if isinstance(raw, str) else "unknown"

    def as_dict(self) -> dict[str, object]:
        """Return the entry as its JSON line object."""
        return {
            "schema": LEDGER_SCHEMA,
            "entry_id": self.entry_id,
            "kind": self.kind,
            "design": self.design,
            "payload": dict(self.payload),
            "provenance": dict(self.provenance),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "LedgerEntry":
        """Rebuild an entry from its JSON line.

        Raises
        ------
        ObservabilityError
            If the line is not a well-formed ledger entry.
        """
        schema = data.get("schema")
        if schema != LEDGER_SCHEMA:
            raise ObservabilityError(
                f"not a ledger entry: schema {schema!r}, "
                f"expected {LEDGER_SCHEMA!r}"
            )
        kind = data.get("kind")
        if not isinstance(kind, str) or not kind:
            raise ObservabilityError(
                f"ledger entry kind must be a non-empty string, got {kind!r}"
            )
        design = data.get("design")
        if design is not None and not isinstance(design, str):
            raise ObservabilityError(
                f"ledger entry design must be a string or null, got {design!r}"
            )
        payload = data.get("payload")
        if not isinstance(payload, dict):
            raise ObservabilityError("ledger entry has no payload object")
        provenance = data.get("provenance")
        entry_id = data.get("entry_id")
        return cls(
            entry_id=(
                entry_id
                if isinstance(entry_id, str) and entry_id
                else entry_id_for(kind, design, payload)
            ),
            kind=kind,
            design=design,
            payload=payload,
            provenance=provenance if isinstance(provenance, dict) else {},
        )


def _parse(lines: Iterable[str]) -> Iterator[LedgerEntry]:
    """Yield the well-formed entries among ``lines``; skip every other line."""
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError:
            continue
        if not isinstance(data, dict):
            continue
        try:
            yield LedgerEntry.from_dict(data)
        except ObservabilityError:
            continue


class RunLedger:
    """Append-only, content-addressed run history on disk.

    One instance may serve many appends, from many threads: it keeps
    the ids it has read and the byte offset they end at, so each append
    parses only the lines appended since, by any process.

    Parameters
    ----------
    directory:
        Ledger root.  Defaults to ``$REPRO_LEDGER_DIR`` when set, else
        ``.repro/ledger`` under the working directory.  Created on
        first append, not on construction -- instantiating a ledger to
        *read* never touches the filesystem.
    """

    def __init__(self, directory: str | Path | None = None) -> None:
        if directory is None:
            directory = os.environ.get(LEDGER_ENV_DIR) or DEFAULT_LEDGER_DIRNAME
        self.directory = Path(directory)
        self.path = self.directory / "ledger.jsonl"
        self._known_ids: set[str] = set()
        #: Bytes of ``path`` already parsed into ``_known_ids``.
        self._parsed = 0
        self._lock = threading.Lock()

    # -- writing -------------------------------------------------------

    def append(
        self,
        kind: str,
        payload: Mapping[str, object],
        design: str | None = None,
        provenance: Mapping[str, object] | None = None,
    ) -> LedgerEntry | None:
        """Append one entry; return it, or None when deduplicated.

        The entry id is computed from the content; an id already in
        the ledger is *not* appended again (re-running ``repro
        bench-gate`` on an unchanged telemetry file adds nothing), so
        the history stays one line per distinct measurement.

        A payload that carries its own ``provenance`` block (a run
        manifest's) has it moved into the entry's provenance, unless
        ``provenance`` is given: kept out of the payload, it lets an
        identical re-measurement content-address to the same entry.
        Without either, the appending process's provenance is stamped.

        Raises
        ------
        ObservabilityError
            If the payload is not JSON-serializable.
        """
        carried = payload.get("provenance")
        if isinstance(carried, Mapping):
            payload = {k: v for k, v in payload.items() if k != "provenance"}
            if provenance is None:
                provenance = carried
        if provenance is None:
            # Imported lazily: repro.metrics imports the runtime layer,
            # which imports repro.observability -- an eager import here
            # would be circular.
            from repro.metrics.provenance import collect_provenance

            provenance = collect_provenance().as_dict()
        entry = LedgerEntry(
            entry_id=entry_id_for(kind, design, payload),
            kind=kind,
            design=design,
            payload=dict(payload),
            provenance=dict(provenance),
        )
        try:
            line = json.dumps(entry.as_dict(), sort_keys=True)
        except (TypeError, ValueError) as exc:
            raise ObservabilityError(
                f"ledger payload for kind {kind!r} is not JSON-serializable: {exc}"
            ) from exc
        with self._lock:
            if entry.entry_id in self._ids():
                return None
            self.directory.mkdir(parents=True, exist_ok=True)
            # One write call per line: POSIX O_APPEND keeps concurrent
            # appenders (parallel bench sessions) from interleaving bytes.
            with self.path.open("a") as handle:
                handle.write(line + "\n")
            self._known_ids.add(entry.entry_id)
        return entry

    # -- reading -------------------------------------------------------

    def _ids(self) -> set[str]:
        """Return every entry id on disk, parsing only the lines not yet read.

        A trailing line without its newline is left for a later call (it
        may still be being written).  A file shorter than the parsed
        offset was replaced, so it is read again from the start; a
        missing one holds no ids.
        """
        try:
            with self.path.open("rb") as handle:
                if os.fstat(handle.fileno()).st_size < self._parsed:
                    self._known_ids, self._parsed = set(), 0
                handle.seek(self._parsed)
                tail = handle.read()
        except FileNotFoundError:
            self._known_ids, self._parsed = set(), 0
            return self._known_ids
        except OSError as exc:
            raise ObservabilityError(
                f"cannot read ledger {self.path}: {exc}"
            ) from exc
        complete = tail[: tail.rfind(b"\n") + 1]
        self._parsed += len(complete)
        lines = complete.decode(errors="replace").splitlines()
        self._known_ids.update(entry.entry_id for entry in _parse(lines))
        return self._known_ids

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())

    def entries(
        self, design: str | None = None, kind: str | None = None
    ) -> Iterator[LedgerEntry]:
        """Yield entries in append order, optionally filtered.

        Malformed lines (a torn tail from a crash mid-append, a hand
        edit) are skipped, never fatal: the ledger must stay readable
        after any single bad write.
        """
        try:
            text = self.path.read_text()
        except FileNotFoundError:
            return
        except OSError as exc:
            raise ObservabilityError(
                f"cannot read ledger {self.path}: {exc}"
            ) from exc
        for entry in _parse(text.splitlines()):
            if design is not None and entry.design != design:
                continue
            if kind is not None and entry.kind != kind:
                continue
            yield entry

    def designs(self) -> list[str]:
        """Return every design with at least one entry, sorted."""
        return sorted(
            {entry.design for entry in self.entries() if entry.design is not None}
        )
