"""Output paths: every writer creates its target's parent directory.

``--json``, ``--markdown`` and ``--events``, and the library writers
behind them, accept a path in a directory that does not exist yet, the
way ``--cache-dir`` and ``--ledger-dir`` do, so a finished run does not
fail at its last step.
"""

from __future__ import annotations

from pathlib import Path

__all__ = ["output_path"]


def output_path(path: str | Path) -> Path:
    """Return ``path`` as a :class:`~pathlib.Path` whose parent directory exists."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    return target
