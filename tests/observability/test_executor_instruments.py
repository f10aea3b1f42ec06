"""Executor telemetry: shard runs, timeout/retry counters and events."""

import os
import time

import pytest

from repro.errors import ConfigurationError
from repro.observability.instruments import InstrumentRegistry, use_registry
from repro.runtime.executor import SweepExecutor, SweepTimeoutError
from repro.telemetry.events import Severity


def _echo(items, context):
    """Module-level worker (picklable) echoing its chunk."""
    return list(items)


def _sleepy(items, context):  # pragma: no cover - runs in a worker process
    time.sleep(0.5)
    return list(items)


@pytest.fixture
def two_cores(monkeypatch):
    """Pretend the host has two cores so the pool path actually runs."""
    monkeypatch.setattr("repro.runtime.executor.os.cpu_count", lambda: 2)


class TestInlineInstrumentation:
    def test_map_records_shard_runs(self):
        executor = SweepExecutor(jobs=1, chunk_size=2)
        registry = InstrumentRegistry()
        with use_registry(registry):
            results = executor.map(_echo, [1, 2, 3])
        assert results == [[1, 2], [3]]
        first, second = executor.shards
        assert [run.context.shard_index for run in executor.shards] == [0, 1]
        assert (first.context.lane_offset, first.context.n_lanes) == (0, 2)
        assert first.pid == os.getpid()
        assert first.duration_s > 0.0 and first.queue_wait_s >= 0.0
        assert second.started_unix >= first.started_unix
        instruments = first.instruments["instruments"]
        assert instruments["repro.executor.shards"]["series"][0]["value"] == 1.0
        assert "repro.executor.queue_wait_seconds" in instruments
        assert "repro.executor.shard_seconds" in instruments
        # Each chunk's snapshot is merged into the caller's registry.
        assert registry.total("repro.executor.shards") == 2.0

    def test_fresh_worker_registry_never_leaks_parent_counts(self):
        parent = InstrumentRegistry()
        parent.counter("repro.executor.shards").inc(100.0)
        executor = SweepExecutor(jobs=1)
        with use_registry(parent):
            executor.map(_echo, [1])
        instruments = executor.shards[0].instruments["instruments"]
        assert instruments["repro.executor.shards"]["series"][0]["value"] == 1.0
        assert parent.total("repro.executor.shards") == 101.0

    def test_rejects_negative_retries(self):
        with pytest.raises(ConfigurationError):
            SweepExecutor(jobs=1, retries=-1)


class TestTimeouts:
    def test_forced_timeout_increments_exactly_one_labeled_counter(
        self, two_cores
    ):
        registry = InstrumentRegistry()
        executor = SweepExecutor(jobs=2, chunk_size=1, timeout_s=0.05)
        with use_registry(registry):
            with pytest.raises(SweepTimeoutError):
                executor.map(_sleepy, [1, 2])
        counter = registry.counter("repro.executor.timeouts")
        assert counter.total() == 1.0
        assert counter.value(shard="0") == 1.0
        events = [e for e in executor.events if e.rule == "EXEC001"]
        assert len(events) == 1
        assert events[0].severity is Severity.ERROR
        assert events[0].source == "shard:0"

    def test_retry_budget_counts_each_resubmission(self, two_cores):
        registry = InstrumentRegistry()
        executor = SweepExecutor(
            jobs=2, chunk_size=1, timeout_s=0.05, retries=1
        )
        with use_registry(registry):
            with pytest.raises(SweepTimeoutError):
                executor.map(_sleepy, [1, 2])
        assert registry.counter("repro.executor.retries").value(shard="0") == 1.0
        assert registry.counter("repro.executor.timeouts").value(shard="0") == 1.0
        assert [e.rule for e in executor.events] == ["EXEC002", "EXEC001"]
        assert executor.events[0].severity is Severity.WARNING

    def test_events_reset_per_call(self, two_cores):
        executor = SweepExecutor(jobs=2, chunk_size=1, timeout_s=0.05)
        with use_registry(InstrumentRegistry()):
            with pytest.raises(SweepTimeoutError):
                executor.map(_sleepy, [1, 2])
            assert executor.events
            executor.map(_echo, [1, 2])
        assert executor.events == []
