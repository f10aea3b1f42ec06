"""SweepExecutor: deterministic chunking, ordering, timeouts."""

import os
import time

import pytest

from repro.errors import ConfigurationError
from repro.runtime.executor import SweepExecutor, SweepTimeoutError


def _collect(items, context):
    """Module-level worker (picklable) echoing its chunk and context."""
    return (list(items), context.lane_offset, context.n_lanes)


def _slow(items, context):  # pragma: no cover - runs in a worker process
    time.sleep(30.0)
    return list(items)


class TestPlan:
    def test_covers_items_contiguously(self):
        executor = SweepExecutor(jobs=3, chunk_size=4)
        plan = executor.plan(10)
        assert plan == [(0, 4), (4, 4), (8, 2)]

    def test_empty(self):
        assert SweepExecutor(jobs=2).plan(0) == []

    def test_default_chunking_uses_effective_workers(self):
        # On an n-core host the default chunk size divides the items
        # over min(jobs, cores): a single-core host gets ONE chunk (one
        # fully vectorized pass), never `jobs` undersized ones.
        executor = SweepExecutor(jobs=4)
        workers = max(1, min(4, os.cpu_count() or 1))
        plan = executor.plan(8)
        assert len(plan) == min(workers, 8)
        assert sum(length for _, length in plan) == 8

    def test_explicit_chunk_size_wins(self):
        assert len(SweepExecutor(jobs=1, chunk_size=1).plan(5)) == 5


class TestValidation:
    def test_rejects_bad_jobs(self):
        with pytest.raises(ConfigurationError):
            SweepExecutor(jobs=0)

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ConfigurationError):
            SweepExecutor(jobs=1, chunk_size=0)

    def test_rejects_bad_timeout(self):
        with pytest.raises(ConfigurationError):
            SweepExecutor(jobs=1, timeout_s=0.0)


class TestMap:
    def test_inline_results_in_submission_order(self):
        executor = SweepExecutor(jobs=1, chunk_size=2)
        results = executor.map(_collect, list(range(7)))
        assert [chunk for chunk, _, _ in results] == [
            [0, 1], [2, 3], [4, 5], [6],
        ]
        assert [offset for _, offset, _ in results] == [0, 2, 4, 6]

    def test_process_pool_results_in_submission_order(self):
        executor = SweepExecutor(jobs=2, chunk_size=1)
        results = executor.map(_collect, [10, 11, 12])
        assert [chunk for chunk, _, _ in results] == [[10], [11], [12]]

    def test_timeout_raises(self):
        if (os.cpu_count() or 1) < 2:
            pytest.skip("timeout path needs a second worker process")
        executor = SweepExecutor(jobs=2, chunk_size=1, timeout_s=0.2)
        with pytest.raises(SweepTimeoutError):
            executor.map(_slow, [1, 2])
