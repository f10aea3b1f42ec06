"""The rung decision: a context-local pin and named refusals.

A pin set in one thread must not move another thread's runs, and
every refusal must leave its reason in the run's own instrument scope,
so a manifest says why a device fell back.
"""

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.config import delay_line_cell_config, paper_cell_config
from repro.deltasigma.modulator2 import SIModulator2
from repro.deltasigma.quantizer import CurrentQuantizer
from repro.designs import resolve
from repro.observability.instruments import InstrumentRegistry, use_registry
from repro.runtime.batch import BatchUnsupported, batch_runner_for
from repro.runtime.engine import current_engine, force_scalar, use_engine
from repro.runtime.lowering import subclass_refusal
from repro.si.delay_line import DelayLine
from repro.si.memory_cell import ClassABMemoryCell

N_SAMPLES = 4096


def _series(registry: InstrumentRegistry, name: str) -> list[tuple[dict, float]]:
    instrument = registry.snapshot()["instruments"].get(name, {"series": []})
    return [(entry["labels"], entry["value"]) for entry in instrument["series"]]


class SaturatingQuantizer(CurrentQuantizer):
    def decide(self, value):
        return super().decide(min(value, 1e-6))


@pytest.mark.parametrize(
    "pin", [lambda: use_engine("scalar"), force_scalar], ids=["scalar", "oracle"]
)
def test_a_pin_in_another_thread_leaves_this_thread_on_the_kernel(pin):
    entered, release = threading.Event(), threading.Event()

    def hold():
        with pin():
            entered.set()
            release.wait(timeout=60.0)

    holder = threading.Thread(target=hold)
    holder.start()
    try:
        assert entered.wait(timeout=60.0)
        seen = current_engine()
        point = resolve("modulator2").point
        t = np.arange(N_SAMPLES) / point.sample_rate
        stimulus = point.amplitude * np.sin(2.0 * np.pi * point.frequency * t)
        registry = InstrumentRegistry()
        with use_registry(registry):
            resolve("modulator2").build()(stimulus)
    finally:
        release.set()
        holder.join(timeout=60.0)
    assert not holder.is_alive()
    assert _series(registry, "repro.engine.runs") == [
        ({"device": "SIModulator2", "engine": "kernel"}, 1.0)
    ]
    assert seen == "auto"


def test_concurrent_pins_each_run_on_their_own_rung():
    # More threads than cores, switching every microsecond: every pin is
    # entered before any thread runs, so a shared pin would move them all.
    stimulus = 3e-6 * np.sin(np.linspace(0.0, 10.0, 256))
    pins = {
        "auto": lambda: use_engine("auto"),
        "kernel": lambda: use_engine("kernel"),
        "scalar": lambda: use_engine("scalar"),
        "oracle": force_scalar,
    }
    barrier = threading.Barrier(len(pins))
    counted: dict[str, list] = {}

    def work(name):
        registry = InstrumentRegistry()
        with use_registry(registry), pins[name]():
            barrier.wait(timeout=60.0)
            for _ in range(5):
                SIModulator2(cell_config=paper_cell_config(sample_rate=2.45e6))(
                    stimulus
                )
        counted[name] = _series(registry, "repro.engine.runs")

    threads = [threading.Thread(target=work, args=(name,)) for name in pins]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    runs = {"device": "SIModulator2"}
    assert counted == {
        "auto": [({**runs, "engine": "kernel"}, 5.0)],
        "kernel": [({**runs, "engine": "kernel"}, 5.0)],
        "scalar": [({**runs, "engine": "scalar"}, 5.0)],
        "oracle": [],
    }


def test_a_kernel_refusal_is_counted_with_its_reason():
    device = SIModulator2(
        cell_config=paper_cell_config(sample_rate=2.45e6),
        quantizer=SaturatingQuantizer(seed=1),
    )
    registry = InstrumentRegistry()
    with use_registry(registry):
        device.run(3e-6 * np.sin(np.linspace(0.0, 10.0, 128)))
    assert _series(registry, "repro.single.fallbacks") == [
        (
            {
                "device": "SIModulator2",
                "reason": subclass_refusal("quantizer", "SaturatingQuantizer"),
            },
            1.0,
        )
    ]


def test_a_batch_refusal_is_counted_with_its_reason():
    line = DelayLine(delay_line_cell_config(), n_cells=2)
    config = replace(line.cells[1].config, quiescent_current=3e-6)
    line.cells[1] = ClassABMemoryCell(config)
    registry = InstrumentRegistry()
    with use_registry(registry), pytest.raises(BatchUnsupported):
        batch_runner_for(line, 2, 64)
    assert _series(registry, "repro.batch.refusals") == [
        (
            {
                "device": "DelayLine",
                "reason": "fused cells must share one electrical configuration",
            },
            1.0,
        )
    ]
