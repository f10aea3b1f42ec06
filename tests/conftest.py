"""Shared fixtures for the test suite.

Tests that simulate the modulators use reduced sample counts (the
paper's 64K-point runs live in the benchmarks); the fixtures here give
every test the same calibrated configurations with fixed seeds so
results are reproducible.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.config import (
    MODULATOR_CLOCK,
    delay_line_cell_config,
    ideal_cell_config,
    paper_cell_config,
)

#: The ``src`` directory this test run imports ``repro`` from.
SRC = str(Path(repro.__file__).resolve().parents[1])


@pytest.fixture(autouse=True)
def _isolated_ledger(tmp_path, monkeypatch):
    """Point the run ledger at a per-test directory.

    CLI-level tests exercise commands that append to the persistent
    run ledger; without this they would pollute the repository's real
    ``.repro/ledger`` history with test entries.
    """
    monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "ledger"))


@pytest.fixture
def rng() -> np.random.Generator:
    """A seeded random generator for test-local randomness."""
    return np.random.default_rng(12345)


@pytest.fixture
def cell_config():
    """The calibrated paper cell configuration at the modulator clock."""
    return paper_cell_config(sample_rate=MODULATOR_CLOCK)


@pytest.fixture
def quiet_cell_config():
    """The paper cell with noise disabled (static errors kept)."""
    return paper_cell_config(sample_rate=MODULATOR_CLOCK).noiseless()


@pytest.fixture
def ideal_config():
    """A cell configuration with every nonideality disabled."""
    return ideal_cell_config(sample_rate=MODULATOR_CLOCK)


@pytest.fixture
def delay_config():
    """The calibrated delay-line cell configuration."""
    return delay_line_cell_config()


@pytest.fixture
def fresh_python():
    """Return a runner of fresh ``python`` processes that import this ``repro``.

    ``run(*args, env=..., cwd=...)`` runs ``python *args`` with this
    checkout's ``src`` first on ``PYTHONPATH`` and ``env`` laid over the
    current environment, and returns the finished process.
    """

    def run(*args: str, env: dict[str, str] | None = None, cwd: Path | None = None):
        merged = {**os.environ, **(env or {})}
        merged["PYTHONPATH"] = os.pathsep.join(
            filter(None, (SRC, os.environ.get("PYTHONPATH")))
        )
        return subprocess.run(
            [sys.executable, *args],
            env=merged,
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=300,
            check=False,
        )

    return run
