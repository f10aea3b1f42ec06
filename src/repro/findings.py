"""The one gate every gating verb judges, orders and exits through.

``repro erc``, ``lint``, ``trace``, ``compare``, ``stats --diff``,
``trend`` and ``bench-gate`` each build a :class:`Gate`: rows that
each carry a :class:`DiffStatus`, plus gate-level notes.  The gate owns
the partitions, the worst-first order and the exit rule: ``1`` on a
REGRESS row, or on a WARN row or a note under ``--strict``; otherwise
``0``.  A verb that cannot run (missing or unreadable input, a
degenerate option) raises instead, and the CLI exits ``2``.

Each verb keeps only its extractor, its columns and its summary
wording.  Extractors read numbers through :func:`finite_or_none` and
documents through :func:`read_json_object`.  Checker findings and
dynamic-rule events carry a :class:`Severity`, which :class:`Report`
maps onto the ladder.
"""

from __future__ import annotations

import enum
import json
import math
from pathlib import Path
from typing import Any, Callable, Generic, Iterable, Protocol, Sequence, TypeVar

from repro.errors import ConfigurationError

__all__ = [
    "DiffStatus",
    "Gate",
    "Severity",
    "SeverityFinding",
    "Report",
    "finite_or_none",
    "read_json_object",
    "render_findings_table",
]


class DiffStatus(enum.Enum):
    """One gate row's verdict, from least to most severe."""

    INFO = "INFO"
    PASS = "PASS"
    WARN = "WARN"
    REGRESS = "REGRESS"


#: The verdicts in the order gate tables list them, worst first.
_WORST_FIRST = tuple(DiffStatus)[::-1]

R = TypeVar("R")


class Gate(Generic[R]):
    """Rows with a verdict each, gate-level notes, and the exit rule.

    Rows carry their verdict as ``status``; a subclass whose rows
    carry it some other way overrides :meth:`status_of`.
    """

    def __init__(self, rows: Iterable[R], notes: Iterable[str] = ()) -> None:
        self.rows: tuple[R, ...] = tuple(rows)
        #: Gate-level warnings that belong to no row.
        self.notes: tuple[str, ...] = tuple(notes)

    @staticmethod
    def status_of(row: Any) -> DiffStatus:
        """Return one row's verdict."""
        return row.status

    def _having(self, status: DiffStatus) -> tuple[R, ...]:
        return tuple(row for row in self.rows if self.status_of(row) is status)

    @property
    def regressions(self) -> tuple[R, ...]:
        """Return the REGRESS rows."""
        return self._having(DiffStatus.REGRESS)

    @property
    def warnings(self) -> tuple[R, ...]:
        """Return the WARN rows."""
        return self._having(DiffStatus.WARN)

    @property
    def ok(self) -> bool:
        """Return True when no row regressed."""
        return not self.regressions

    def ordered(self) -> tuple[R, ...]:
        """Return the rows worst first, in row order within a verdict."""
        return tuple(
            sorted(self.rows, key=lambda row: _WORST_FIRST.index(self.status_of(row)))
        )

    def exit_code(self, strict: bool = False) -> int:
        """Return the process exit code (see the module docstring)."""
        if self.regressions:
            return 1
        if strict and (self.warnings or self.notes):
            return 1
        return 0


def finite_or_none(value: object) -> float | None:
    """Return ``value`` as a finite float, or None for anything else.

    Booleans, strings, None, NaN and infinities all read as None: a
    gate never judges a number it cannot read.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    number = float(value)
    return number if math.isfinite(number) else None


def read_json_object(
    path: str | Path, what: str, error: type[Exception]
) -> dict[str, object]:
    """Load the JSON object at ``path``, a gate input document.

    Raises
    ------
    error
        If the file is missing or unreadable, is not JSON, or holds
        something other than an object; the message names ``what``.
    """
    target = Path(path)
    try:
        loaded = json.loads(target.read_text())
    except FileNotFoundError:
        raise error(f"{what} not found: {target}") from None
    except (OSError, json.JSONDecodeError) as exc:
        raise error(f"cannot read {what} {target}: {exc}") from exc
    if not isinstance(loaded, dict):
        raise error(f"{what} {target} is not a JSON object")
    return loaded


class Severity(enum.IntEnum):
    """Severity of a finding; ordered so comparisons work."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @classmethod
    def from_name(cls, name: str) -> "Severity":
        """Return the severity named by a case-insensitive string.

        Raises
        ------
        ConfigurationError
            If the name is not a severity.
        """
        try:
            return cls[name.upper()]
        except KeyError:
            raise ConfigurationError(
                f"unknown severity {name!r}; expected one of "
                f"{[s.name.lower() for s in cls]}"
            ) from None


#: The gate verdict of a finding at each severity.
_SEVERITY_STATUS = {
    Severity.ERROR: DiffStatus.REGRESS,
    Severity.WARNING: DiffStatus.WARN,
    Severity.INFO: DiffStatus.INFO,
}


class SeverityFinding(Protocol):
    """Structural type every checker finding satisfies."""

    @property
    def rule(self) -> str: ...

    @property
    def severity(self) -> Severity: ...

    @property
    def message(self) -> str: ...


F = TypeVar("F", bound=SeverityFinding)


class Report(Gate[F]):
    """The gate over one checker pass's findings on one subject.

    Serves ``repro erc``, ``repro lint`` and ``repro trace``: an ERROR
    finding regresses, a WARNING warns.  Subclasses set :attr:`label`
    and may re-expose :attr:`subject` and :attr:`findings` under domain
    names (``design``/``violations``).
    """

    #: Verdict prefix in :meth:`summary` (``"ERC"``, ``"LINT"``).
    label: str = "CHECK"

    def __init__(self, subject: str, findings: Sequence[F]) -> None:
        super().__init__(findings)
        self.subject = subject

    @staticmethod
    def status_of(row: Any) -> DiffStatus:
        """Return a finding's verdict, read off its severity."""
        return _SEVERITY_STATUS[row.severity]

    @property
    def findings(self) -> tuple[F, ...]:
        """Every finding, in checker order."""
        return self.rows

    def summary(self) -> str:
        """Return a one-line pass/fail summary."""
        verdict = "PASS" if self.ok else "FAIL"
        return (
            f"{self.label} {verdict}: {self.subject} -- "
            f"{len(self.regressions)} error(s), {len(self.warnings)} warning(s), "
            f"{len(self.findings)} total"
        )


def render_findings_table(
    title: str,
    columns: Sequence[str],
    findings: Sequence[F],
    row: Callable[[F], Sequence[str]],
    empty: str = "no findings",
) -> str:
    """Render findings as the paper-style table both checkers print."""
    from repro.reporting.tables import render_table

    rows = [tuple(row(f)) for f in findings]
    if not rows:
        rows = [tuple("-" for _ in columns[:-1]) + (empty,)]
    return render_table(title, tuple(columns), rows)
