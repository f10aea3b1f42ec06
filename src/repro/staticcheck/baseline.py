"""Committed suppression baseline for ``repro lint``.

Deliberate rule exceptions live in ``baselines/staticcheck.json``::

    {
      "version": 1,
      "entries": [
        {
          "rule": "SC001",
          "path": "src/repro/noise/flicker.py",
          "anchor": "self._rng = rng if rng is not None else np.random.default_rng()",
          "reason": "API seed boundary: callers may opt out of replay."
        }
      ]
    }

An entry suppresses findings matching its ``(rule, path, anchor)``
triple, where the anchor is the *stripped source line* at the finding
-- robust to line drift, invalidated the moment the code itself
changes.  Every entry must carry a non-empty human ``reason``.
Entries whose file was scanned but matched nothing surface as SC000
findings, so the baseline can only shrink silently, never rot.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.errors import ConfigurationError
from repro.findings import Severity, read_json_object
from repro.staticcheck.model import LintFinding
from repro.staticcheck.rules import STALE_SUPPRESSION_CODE

__all__ = ["Baseline", "BaselineEntry"]


@dataclass(frozen=True)
class BaselineEntry:
    """One suppressed finding with its justification."""

    rule: str
    path: str
    anchor: str
    reason: str

    def matches(self, finding: LintFinding) -> bool:
        """True when ``finding`` is the finding this entry suppresses."""
        if self.rule != finding.rule or self.anchor != finding.anchor:
            return False
        return finding.path == self.path or finding.path.endswith(
            "/" + self.path
        )

    def covers_path(self, scanned: Iterable[str]) -> bool:
        """True when this entry's file was part of the scanned set."""
        return any(
            path == self.path or path.endswith("/" + self.path)
            for path in scanned
        )


def _parse_entry(raw: Any, index: int, origin: str) -> BaselineEntry:
    if not isinstance(raw, dict):
        raise ConfigurationError(
            f"{origin}: entry {index} is not an object"
        )
    fields = {}
    for key in ("rule", "path", "anchor", "reason"):
        value = raw.get(key)
        if not isinstance(value, str) or not value.strip():
            raise ConfigurationError(
                f"{origin}: entry {index} needs a non-empty string {key!r} "
                "(every suppression must say what and why)"
            )
        fields[key] = value
    return BaselineEntry(
        rule=fields["rule"],
        path=fields["path"].replace("\\", "/"),
        anchor=fields["anchor"].strip(),
        reason=fields["reason"],
    )


class Baseline:
    """The loaded suppression set, applied after rule evaluation."""

    def __init__(self, entries: Sequence[BaselineEntry] = ()) -> None:
        self.entries: tuple[BaselineEntry, ...] = tuple(entries)

    @classmethod
    def load(cls, path: str | Path) -> "Baseline":
        """Load a baseline file; a missing file is an empty baseline."""
        target = Path(path)
        if not target.exists():
            return cls()
        payload = read_json_object(
            target, "suppression baseline", ConfigurationError
        )
        raw_entries = payload.get("entries", [])
        if not isinstance(raw_entries, list):
            raise ConfigurationError(f"{target}: 'entries' must be a list")
        return cls(
            tuple(
                _parse_entry(raw, index, str(target))
                for index, raw in enumerate(raw_entries)
            )
        )

    def apply(
        self,
        findings: Sequence[LintFinding],
        scanned_paths: Iterable[str],
    ) -> tuple[list[LintFinding], list[LintFinding], list[LintFinding]]:
        """Partition findings into (kept, suppressed, stale-entry findings).

        Stale SC000 findings are only raised for entries whose file was
        actually scanned, so linting a subtree never flags suppressions
        that belong to files outside it.
        """
        scanned = list(scanned_paths)
        kept: list[LintFinding] = []
        suppressed: list[LintFinding] = []
        used: set[int] = set()
        for finding in findings:
            match = next(
                (
                    index
                    for index, entry in enumerate(self.entries)
                    if entry.matches(finding)
                ),
                None,
            )
            if match is None:
                kept.append(finding)
            else:
                used.add(match)
                suppressed.append(finding)
        stale: list[LintFinding] = []
        for index, entry in enumerate(self.entries):
            if index in used or not entry.covers_path(scanned):
                continue
            stale.append(
                LintFinding(
                    rule=STALE_SUPPRESSION_CODE,
                    severity=Severity.WARNING,
                    message=(
                        f"stale suppression: {entry.rule} at {entry.path} "
                        f"(anchor {entry.anchor!r}) no longer matches any "
                        "finding; delete the baseline entry"
                    ),
                    path=entry.path,
                    line=0,
                    column=0,
                    anchor=entry.anchor,
                )
            )
        return kept, suppressed, stale
