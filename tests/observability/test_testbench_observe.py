"""TestBench accounting: each measurement counts into the current registry."""

from repro.observability.instruments import InstrumentRegistry, use_registry
from repro.systems.testbench import TestBench
from repro.telemetry.session import TelemetrySession


def _bench(**kwargs) -> TestBench:
    return TestBench(
        sample_rate=1e6, n_samples=1 << 12, settle_samples=64, **kwargs
    )


class TestObserve:
    def test_measure_accounts_count_and_latency(self):
        registry = InstrumentRegistry()
        bench = _bench()
        with use_registry(registry):
            bench.measure(lambda x: x, amplitude=1e-6, frequency=5e3)
        counter = registry.counter("repro.bench.measurements")
        assert counter.value(device="function") == 1.0
        histogram = registry.get("repro.bench.measure_seconds")
        assert histogram.count(device="function") == 1

    def test_each_measurement_accounts_once(self):
        registry = InstrumentRegistry()
        bench = _bench()
        with use_registry(registry):
            for _ in range(3):
                bench.measure(lambda x: x, amplitude=1e-6, frequency=5e3)
        assert registry.counter("repro.bench.measurements").total() == 3.0

    def test_traced_path_accounts_too(self):
        registry = InstrumentRegistry()
        bench = _bench(telemetry=TelemetrySession("bench"))
        with use_registry(registry):
            bench.measure(lambda x: x, amplitude=1e-6, frequency=5e3)
        assert registry.counter("repro.bench.measurements").total() == 1.0
