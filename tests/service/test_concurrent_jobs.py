"""Concurrent service jobs count apart: one scope per report.

``repro serve --workers 2`` runs two simulations at once in one
process.  Each manifest's ``instruments`` must describe its own run
only, and ``/statsz`` (the process registry) must still see both.
"""

from __future__ import annotations

import pytest

from repro.metrics.report import build_report
from repro.observability.instruments import InstrumentRegistry, set_registry
from repro.service import ServiceConfig, SimulationService

DESIGNS = ("modulator2", "chopper")
N_SAMPLES = 1 << 14


def _engine_runs(manifest: dict) -> dict:
    entry = manifest["instruments"]["instruments"]["repro.engine.runs"]
    return {
        tuple(sorted(series["labels"].items())): series["value"]
        for series in entry["series"]
    }


@pytest.fixture
def process_registry():
    """Run the test under a fresh process registry."""
    fresh = InstrumentRegistry()
    previous = set_registry(fresh)
    try:
        yield fresh
    finally:
        set_registry(previous)


def test_concurrent_reports_count_only_their_own_runs(tmp_path, process_registry):
    alone = {
        design: _engine_runs(build_report(design, n_samples=N_SAMPLES).as_dict())
        for design in DESIGNS
    }
    service = SimulationService(
        ServiceConfig(workers=2, ledger=False, cache_dir=str(tmp_path / "cache"))
    )
    try:
        jobs = [
            service.submit({"design": design, "n_samples": N_SAMPLES})[0]
            for design in DESIGNS
        ]
        for job in jobs:
            assert job.wait(timeout=300.0)
    finally:
        service.close()
    for design, job in zip(DESIGNS, jobs):
        assert job.error is None, job.error
        assert _engine_runs(job.result) == alone[design], design
    assert process_registry.total("repro.service.executed") == 2.0
