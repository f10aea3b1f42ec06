"""Run provenance: who produced an artifact, from what tree, when.

Every JSON/JSONL artifact this library writes -- run manifests,
``BENCH_telemetry.json``, telemetry JSONL traces -- is stamped with the
same provenance block so a number found in CI weeks later is
attributable: the git commit it was measured at, the exact command
line, and the interpreter/numpy versions that produced it.
"""

from __future__ import annotations

import functools
import os
import platform
import subprocess
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Mapping

import numpy as np

__all__ = ["Provenance", "collect_provenance", "git_sha"]


def git_sha(cwd: str | None = None) -> str:
    """Return the current git commit SHA, or ``"unknown"``.

    Never raises: artifacts must still be writable from a tarball
    checkout or an environment without git.
    """
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5.0,
            cwd=cwd,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = result.stdout.strip()
    return sha if result.returncode == 0 and sha else "unknown"


def _git_dirty(cwd: str | None = None) -> bool | None:
    """Return whether the working tree has uncommitted changes.

    None when git is unavailable.
    """
    try:
        result = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            capture_output=True,
            text=True,
            timeout=5.0,
            cwd=cwd,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if result.returncode != 0:
        return None
    return bool(result.stdout.strip())


@dataclass(frozen=True)
class Provenance:
    """Attribution block stamped into every exported artifact.

    Attributes
    ----------
    git_sha:
        Commit the artifact was produced at (``"unknown"`` outside git).
    git_dirty:
        Whether the tree had uncommitted changes (None if unknowable).
    timestamp:
        ISO-8601 UTC creation time.
    python_version:
        ``major.minor.micro`` of the interpreter.
    numpy_version:
        The numpy release the numbers were computed with.
    platform:
        ``platform.platform()`` of the producing machine.
    hostname:
        ``platform.node()`` of the producing machine (``"unknown"``
        when the host does not report one) -- the run ledger uses it
        to distinguish runs merged from different machines.
    cpu_count:
        ``os.cpu_count()`` of the producing machine (None if
        unknowable); bench wall times are only comparable between
        runs with the same core count.
    argv:
        The command line that produced the artifact.
    """

    git_sha: str
    git_dirty: bool | None
    timestamp: str
    python_version: str
    numpy_version: str
    platform: str
    argv: tuple[str, ...]
    hostname: str = "unknown"
    cpu_count: int | None = None

    def as_dict(self) -> dict[str, object]:
        """Return the provenance as a JSON-ready dictionary."""
        return {
            "git_sha": self.git_sha,
            "git_dirty": self.git_dirty,
            "timestamp": self.timestamp,
            "python_version": self.python_version,
            "numpy_version": self.numpy_version,
            "platform": self.platform,
            "hostname": self.hostname,
            "cpu_count": self.cpu_count,
            "argv": list(self.argv),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Provenance":
        """Rebuild a provenance block from :meth:`as_dict` output.

        Missing or mistyped fields degrade to ``"unknown"``/None rather
        than raising, and keys it does not know (the ``engine`` that
        older artifacts carry) are ignored -- old artifacts must stay
        loadable.
        """
        dirty = data.get("git_dirty")
        argv = data.get("argv")
        cpus = data.get("cpu_count")
        return cls(
            git_sha=str(data.get("git_sha", "unknown")),
            git_dirty=dirty if isinstance(dirty, bool) else None,
            timestamp=str(data.get("timestamp", "unknown")),
            python_version=str(data.get("python_version", "unknown")),
            numpy_version=str(data.get("numpy_version", "unknown")),
            platform=str(data.get("platform", "unknown")),
            argv=tuple(str(a) for a in argv) if isinstance(argv, list) else (),
            hostname=str(data.get("hostname", "unknown")),
            cpu_count=cpus if isinstance(cpus, int) else None,
        )


@functools.lru_cache(maxsize=8)
def _git_state(cwd: str | None) -> tuple[str, bool | None]:
    """Return the SHA and dirty flag of the tree at ``cwd``, once per process.

    The commit under a running process does not change, and each
    lookup costs two ``git`` subprocesses -- a service would otherwise
    pay them on every job.
    """
    return git_sha(cwd), _git_dirty(cwd)


def collect_provenance(argv: list[str] | None = None) -> Provenance:
    """Collect the provenance of the current process.

    The git SHA and dirty flag are looked up once per process and
    working directory; the timestamp and ``argv`` are taken per call.

    Parameters
    ----------
    argv:
        Command line to stamp; ``sys.argv`` when omitted.
    """
    version = sys.version_info
    try:
        cwd: str | None = os.getcwd()
    except OSError:  # the working directory was removed under us
        cwd = None
    sha, dirty = _git_state(cwd)
    return Provenance(
        git_sha=sha,
        git_dirty=dirty,
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        python_version=f"{version.major}.{version.minor}.{version.micro}",
        numpy_version=str(np.__version__),
        platform=platform.platform(),
        argv=tuple(sys.argv if argv is None else argv),
        hostname=platform.node() or "unknown",
        cpu_count=os.cpu_count(),
    )
