"""The one run path: every lowered device runs and traces the same way."""

import numpy as np
import pytest

from repro.config import MODULATOR_CLOCK, delay_line_cell_config, paper_cell_config
from repro.deltasigma import (
    ChopperStabilizedSIModulator,
    SIModulator1,
    SIModulator2,
)
from repro.designs import DESIGNS
from repro.errors import ConfigurationError
from repro.observability.instruments import InstrumentRegistry, use_registry
from repro.si import BiquadCascade, ClassABMemoryCell, DelayLine
from repro.telemetry.session import TelemetrySession

#: One instance of each of the six device types the kernel lowers.
LOWERED = {
    "cell": lambda: ClassABMemoryCell(delay_line_cell_config()),
    "delay-line": lambda: DelayLine(delay_line_cell_config(), n_cells=2),
    "cascade": lambda: BiquadCascade(10e3, 2, MODULATOR_CLOCK, config=paper_cell_config()),
    "modulator1": lambda: SIModulator1(paper_cell_config()),
    "modulator2": lambda: SIModulator2(paper_cell_config()),
    "chopper": lambda: ChopperStabilizedSIModulator(paper_cell_config()),
}

RUNNABLE = sorted(name for name, entry in DESIGNS.items() if entry.operating_point)


@pytest.mark.parametrize("name", sorted(LOWERED))
def test_a_2d_stimulus_is_refused_by_name_and_counts_nothing(name):
    device = LOWERED[name]()
    with use_registry(InstrumentRegistry()) as scope:
        with pytest.raises(ConfigurationError, match=r"stimulus must be 1-D, got shape \(2, 8\)"):
            device.run(np.zeros((2, 8)))
    assert scope.get("repro.single.fallbacks") is None
    assert scope.get("repro.engine.runs") is None


@pytest.mark.parametrize("name", RUNNABLE)
def test_traced_records_equal_the_declaration(name):
    device = DESIGNS[name].build()
    session = TelemetrySession(name)
    device.attach_telemetry(session)
    device(np.full(64, 1e-6))
    (span,) = session.roots
    assert span.name == device._telemetry_name
    records = [
        (child.name, child.samples, child.duration_s, child.attrs.get("phase"))
        for child in span.children
    ]
    declared = [
        (e.name, 64, None, e.phase.name if hasattr(e, "phase") else None)
        for e in device.structure()
    ]
    assert records == declared
    # Every stage's records and probes share its declared name.
    for stage in device.stages():
        assert any(probe.startswith(f"{span.name}.{stage.name}") for probe in session.probes)


@pytest.mark.parametrize("name", ["modulator1", "modulator2", "chopper"])
def test_a_loop_names_its_blocks_once_for_the_graph_and_the_records(name):
    device = DESIGNS[name].build()
    blocks = [e.name for e in device.structure() if not hasattr(e, "phase")]
    expected = ["quantizer", "dac"]
    if device.chopped:
        expected = ["chop_in", *expected, "chop_out"]
    assert blocks == expected
    graph = device.describe_graph()
    assert all(block in graph for block in blocks)
