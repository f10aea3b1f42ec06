"""Cross-process propagation: spans and counters survive real workers."""

import os

import pytest

from repro.config import (
    MODULATOR_CLOCK,
    MODULATOR_FULL_SCALE,
    SIGNAL_BANDWIDTH,
)
from repro.observability.instruments import InstrumentRegistry, use_registry
from repro.runtime.cache import ResultCache
from repro.runtime.executor import SweepExecutor
from repro.runtime.sweeps import SweepSpec, run_sweep
from repro.systems.stimulus import coherent_frequency
from repro.telemetry.session import TelemetrySession

N_SAMPLES = 1 << 13
LEVELS = (-40.0, -20.0, -10.0)


def _spec(**overrides) -> SweepSpec:
    base = dict(
        design="modulator2",
        levels_db=LEVELS,
        full_scale=MODULATOR_FULL_SCALE,
        signal_frequency=coherent_frequency(2e3, MODULATOR_CLOCK, N_SAMPLES),
        sample_rate=MODULATOR_CLOCK,
        n_samples=N_SAMPLES,
        bandwidth=SIGNAL_BANDWIDTH,
        settle_samples=64,
    )
    base.update(overrides)
    return SweepSpec(**base)


@pytest.fixture
def two_cores(monkeypatch):
    monkeypatch.setattr("repro.runtime.executor.os.cpu_count", lambda: 2)


class TestSpanPropagation:
    def test_forked_shard_spans_graft_with_worker_pids(self, two_cores):
        registry = InstrumentRegistry()
        session = TelemetrySession("propagation")
        with use_registry(registry):
            run_sweep(
                _spec(),
                executor=SweepExecutor(jobs=2, chunk_size=2),
                telemetry=session,
            )
        (sweep,) = [s for s in session.roots if s.name == "sweep"]
        shards = [c for c in sweep.children if c.name.startswith("shard:")]
        assert [s.name for s in shards] == ["shard:0", "shard:1"]
        for shard in shards:
            # The span was timed in the worker process, not here.
            assert shard.pid != os.getpid()
            assert shard.duration_s is not None and shard.duration_s > 0.0
            assert "queue_wait_ms" in shard.attrs
        assert registry.counter("repro.executor.shards").total() == 2.0

    def test_inline_and_forked_results_byte_identical(self, two_cores):
        spec = _spec()
        with use_registry(InstrumentRegistry()):
            inline = run_sweep(spec, executor=SweepExecutor(jobs=1))
            forked = run_sweep(
                spec, executor=SweepExecutor(jobs=2, chunk_size=2)
            )
        assert forked.metrics == inline.metrics
        assert forked.sndr_db.tobytes() == inline.sndr_db.tobytes()
        assert forked.snr_db.tobytes() == inline.snr_db.tobytes()
        assert forked.thd_db.tobytes() == inline.thd_db.tobytes()


class TestCounterPropagation:
    def test_cache_counters_sum_correctly_across_processes(
        self, tmp_path, two_cores
    ):
        spec = _spec()
        cache = ResultCache(tmp_path)
        executor = SweepExecutor(jobs=2, chunk_size=2)
        registry = InstrumentRegistry()
        with use_registry(registry):
            run_sweep(spec, executor=executor, cache=cache)
        misses = registry.counter("repro.cache.misses")
        hits = registry.counter("repro.cache.hits")
        assert misses.total() == 1.0 and hits.total() == 0.0
        assert registry.counter("repro.cache.bytes_stored").total() > 0.0
        with use_registry(registry):
            run_sweep(spec, executor=executor, cache=cache)
        assert hits.total() == 1.0 and misses.total() == 1.0
