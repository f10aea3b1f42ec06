"""Instrument registry: kinds, labels, snapshot/merge, exposition, scopes."""

import sys
import threading

import pytest

from repro.errors import ObservabilityError
from repro.observability.instruments import (
    InstrumentRegistry,
    get_registry,
    reset_registry,
    set_registry,
    use_registry,
)


class TestCounters:
    def test_inc_and_total(self):
        registry = InstrumentRegistry()
        counter = registry.counter("repro.test.hits")
        counter.inc()
        counter.inc(2.0)
        assert counter.total() == 3.0

    def test_labeled_series_accumulate_independently(self):
        counter = InstrumentRegistry().counter("repro.test.hits")
        counter.inc(kind="a")
        counter.inc(kind="a")
        counter.inc(kind="b")
        assert counter.value(kind="a") == 2.0
        assert counter.value(kind="b") == 1.0
        assert counter.value(kind="never") == 0.0
        assert counter.total() == 3.0

    def test_negative_increment_rejected(self):
        counter = InstrumentRegistry().counter("repro.test.hits")
        with pytest.raises(ObservabilityError):
            counter.inc(-1.0)

    def test_get_or_create_returns_same_object(self):
        registry = InstrumentRegistry()
        assert registry.counter("repro.test.hits") is registry.counter(
            "repro.test.hits"
        )

    def test_kind_conflict_rejected(self):
        registry = InstrumentRegistry()
        registry.counter("repro.test.x")
        with pytest.raises(ObservabilityError):
            registry.gauge("repro.test.x")
        with pytest.raises(ObservabilityError):
            registry.histogram("repro.test.x")

    def test_invalid_names_rejected(self):
        registry = InstrumentRegistry()
        for bad in ("", "Repro.cache", "repro..hits", "repro.hits!", "9x"):
            with pytest.raises(ObservabilityError):
                registry.counter(bad)

    def test_registry_total_needs_a_counter(self):
        registry = InstrumentRegistry()
        registry.gauge("repro.test.g").set(1.0)
        assert registry.total("repro.test.absent") == 0.0
        with pytest.raises(ObservabilityError):
            registry.total("repro.test.g")


class TestGauges:
    def test_last_value_wins(self):
        gauge = InstrumentRegistry().gauge("repro.test.size")
        gauge.set(5.0)
        gauge.set(3.0)
        assert gauge.value() == 3.0

    def test_unset_series_is_none(self):
        assert InstrumentRegistry().gauge("repro.test.size").value(k="v") is None


class TestHistograms:
    def test_buckets_and_overflow(self):
        histogram = InstrumentRegistry().histogram(
            "repro.test.latency", buckets=(0.1, 1.0)
        )
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(10.0)
        assert histogram.count() == 3
        assert histogram.sum() == pytest.approx(10.55)
        ((_, series),) = histogram.series()
        assert series.bucket_counts == [1, 1, 1]

    def test_bucket_conflict_rejected(self):
        registry = InstrumentRegistry()
        registry.histogram("repro.test.latency", buckets=(0.1, 1.0))
        with pytest.raises(ObservabilityError):
            registry.histogram("repro.test.latency", buckets=(0.2, 1.0))

    def test_non_increasing_buckets_rejected(self):
        with pytest.raises(ObservabilityError):
            InstrumentRegistry().histogram("repro.test.bad", buckets=(1.0, 1.0))
        with pytest.raises(ObservabilityError):
            InstrumentRegistry().histogram("repro.test.bad", buckets=())


class TestSnapshotMerge:
    def _populated(self):
        registry = InstrumentRegistry()
        registry.counter("repro.test.hits").inc(2.0, kind="sweep")
        registry.gauge("repro.test.size").set(7.0)
        registry.histogram("repro.test.latency", buckets=(0.1, 1.0)).observe(0.5)
        return registry

    def test_merge_adds_counters_and_histograms(self):
        a = self._populated()
        b = InstrumentRegistry()
        b.merge(a.snapshot())
        b.merge(a.snapshot())
        assert b.counter("repro.test.hits").value(kind="sweep") == 4.0
        assert b.histogram("repro.test.latency", buckets=(0.1, 1.0)).count() == 2
        # Gauges take the incoming value instead of summing.
        assert b.gauge("repro.test.size").value() == 7.0

    def test_merge_roundtrip_preserves_snapshot(self):
        a = self._populated()
        b = InstrumentRegistry()
        b.merge(a.snapshot())
        assert b.snapshot() == a.snapshot()

    def test_merge_rejects_malformed_documents(self):
        registry = InstrumentRegistry()
        with pytest.raises(ObservabilityError):
            registry.merge({"schema": "nope", "instruments": {}})
        with pytest.raises(ObservabilityError):
            registry.merge(
                {
                    "schema": "repro.observability/instrument-snapshot/v1",
                    "instruments": {"repro.test.x": {"kind": "sundial"}},
                }
            )

    def test_merge_rejects_bucket_count_mismatch(self):
        source = InstrumentRegistry()
        source.histogram("repro.test.latency", buckets=(0.1, 1.0)).observe(0.5)
        snapshot = source.snapshot()
        entry = snapshot["instruments"]["repro.test.latency"]
        entry["series"][0]["bucket_counts"] = [1]
        with pytest.raises(ObservabilityError):
            InstrumentRegistry().merge(snapshot)


class TestExposition:
    def test_render_table_lists_every_series(self):
        registry = InstrumentRegistry()
        registry.counter("repro.test.hits").inc(kind="sweep")
        registry.histogram("repro.test.latency", buckets=(0.1, 1.0)).observe(0.5)
        text = registry.render_table()
        assert "repro.test.hits" in text
        assert "kind=sweep" in text
        assert "n=1" in text

    def test_render_table_empty(self):
        assert "no instruments recorded" in InstrumentRegistry().render_table()

    def test_prometheus_text(self):
        registry = InstrumentRegistry()
        registry.counter("repro.cache.hits", help="cache hits").inc(kind="a")
        registry.histogram("repro.test.latency", buckets=(0.1, 1.0)).observe(0.5)
        text = registry.to_prometheus_text()
        assert "# HELP repro_cache_hits cache hits" in text
        assert "# TYPE repro_cache_hits counter" in text
        assert 'repro_cache_hits{kind="a"} 1' in text
        assert 'repro_test_latency_bucket{le="0.1"} 0' in text
        assert 'repro_test_latency_bucket{le="+Inf"} 1' in text
        assert "repro_test_latency_count 1" in text

    def test_prometheus_escapes_label_values(self):
        registry = InstrumentRegistry()
        registry.counter("repro.test.hits").inc(kind='a"b\nc')
        assert '{kind="a\\"b\\nc"}' in registry.to_prometheus_text()


class TestProcessWideDefault:
    def test_use_registry_swaps_and_restores(self):
        original = get_registry()
        mine = InstrumentRegistry()
        with use_registry(mine):
            assert get_registry() is mine
        assert get_registry() is original

    def test_set_registry_returns_previous(self):
        original = get_registry()
        mine = InstrumentRegistry()
        try:
            assert set_registry(mine) is original
            assert get_registry() is mine
        finally:
            set_registry(original)

    def test_reset_registry_installs_fresh(self):
        original = get_registry()
        try:
            fresh = reset_registry()
            assert get_registry() is fresh
            assert fresh is not original
        finally:
            set_registry(original)

    def test_set_registry_leaves_open_scopes_alone(self):
        scoped = InstrumentRegistry()
        original = get_registry()
        try:
            with use_registry(scoped):
                set_registry(InstrumentRegistry())
                assert get_registry() is scoped
        finally:
            set_registry(original)


class TestContextLocalScopes:
    def test_new_thread_counts_into_the_process_registry(self):
        seen = []
        with use_registry(InstrumentRegistry()):
            thread = threading.Thread(target=lambda: seen.append(get_registry()))
            thread.start()
            thread.join()
        assert seen == [get_registry()]

    def test_interleaved_thread_scopes_count_apart(self):
        # A enters, B enters, A exits, B exits: with one process-wide
        # swap, A's counts land in B's registry and the main thread is
        # left on A's.  Scopes are per thread, so neither happens.
        process = get_registry()
        mine = {"a": InstrumentRegistry(), "b": InstrumentRegistry()}
        a_entered, b_entered, a_exited = (threading.Event() for _ in range(3))
        errors = []

        def count(thread: str) -> None:
            get_registry().counter("repro.test.scoped_hits").inc(thread=thread)
            if get_registry() is not mine[thread]:
                errors.append(thread)

        def run_a() -> None:
            with use_registry(mine["a"]):
                a_entered.set()
                b_entered.wait(timeout=10.0)
                count("a")
            a_exited.set()

        def run_b() -> None:
            a_entered.wait(timeout=10.0)
            with use_registry(mine["b"]):
                b_entered.set()
                a_exited.wait(timeout=10.0)
                count("b")

        threads = [threading.Thread(target=run_a), threading.Thread(target=run_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        assert errors == []
        assert get_registry() is process
        for thread, registry in mine.items():
            assert registry.counter("repro.test.scoped_hits").series() == [
                ((("thread", thread),), 1.0)
            ]
        assert process.get("repro.test.scoped_hits") is None

    def test_many_threads_never_lose_or_leak_counts(self):
        # More threads than cores, switching every few microseconds: a
        # shared swap would move counts between registries.
        process = get_registry()
        n_threads, n_rounds = 8, 200
        mine = [InstrumentRegistry() for _ in range(n_threads)]

        def work(registry: InstrumentRegistry) -> None:
            for _ in range(n_rounds):
                with use_registry(registry):
                    get_registry().counter("repro.test.stress_hits").inc()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(r,)) for r in mine]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert [r.total("repro.test.stress_hits") for r in mine] == [n_rounds] * n_threads
        assert process.get("repro.test.stress_hits") is None
        assert get_registry() is process
