"""The declared lowering protocol (:mod:`repro.runtime.lowering`).

Before the protocol existed the engines used blanket exact-type
checks; now a subclass that only touches metadata hooks keeps its
bit-exact batch lowering, while behavioural overrides refuse with a
named reason.  These tests pin both halves, plus the probe pairing
rule shared by the batch and single-run paths.
"""

import numpy as np
import pytest

from repro.config import paper_cell_config
from repro.deltasigma.quantizer import CurrentQuantizer
from repro.observability.instruments import InstrumentRegistry, use_registry
from repro.runtime.batch import BatchUnsupported, batch_runner_for
from repro.runtime.engine import force_scalar, run_single
from repro.runtime.lowering import (
    LOWERING_PROTOCOL,
    PROTOCOL_BY_QUALNAME,
    hook_refusal,
    hooks_outside_protocol,
    lowering_refusal,
    overridden_hooks,
    probe_pair_refusal,
    probe_refusal,
    protocol_for,
    subclass_refusal,
)
from repro.si.delay_line import DelayLine
from repro.si.memory_cell import ClassABMemoryCell
from repro.telemetry.probes import SignalProbe


class AnnotatedCell(ClassABMemoryCell):
    """Metadata-only subclass: inside the protocol, keeps lowering."""

    def __init__(self, config, label="cell"):
        super().__init__(config)
        self.label = label


class TamperedCell(ClassABMemoryCell):
    """Behavioural override: outside the protocol, refuses lowering."""

    def run(self, differential_input):
        return differential_input


class TamperedLine(DelayLine):
    def step(self, sample):
        return sample


class ExoticQuantizer(CurrentQuantizer):
    pass


class UnpairedProbe(SignalProbe):
    def observe(self, value):
        super().observe(value)


class PairedProbe(SignalProbe):
    def observe(self, value):
        super().observe(value)

    def observe_array(self, values):
        super().observe_array(values)


def test_protocol_table_is_consistent():
    assert len(LOWERING_PROTOCOL) >= 10
    assert set(PROTOCOL_BY_QUALNAME.values()) == set(LOWERING_PROTOCOL)
    for entry in LOWERING_PROTOCOL:
        # Allowlisted hooks are never reported as outside the protocol,
        # whether or not the base happens to define them.
        assert hooks_outside_protocol(entry, entry.overridable) == []


def test_protocol_for_walks_the_mro():
    entry = protocol_for(AnnotatedCell)
    assert entry is not None and entry.base is ClassABMemoryCell
    assert protocol_for(ClassABMemoryCell) is entry
    assert protocol_for(int) is None


def test_overridden_hooks_filters_through_the_protocol():
    entry = protocol_for(ClassABMemoryCell)
    assert overridden_hooks(AnnotatedCell, entry) == []
    assert overridden_hooks(TamperedCell, entry) == ["run"]
    assert hooks_outside_protocol(entry, ["__init__", "run", "novelty"]) == [
        "run"
    ]


def test_lowering_refusal_messages():
    config = paper_cell_config()
    assert lowering_refusal(ClassABMemoryCell(config)) is None
    assert lowering_refusal(AnnotatedCell(config)) is None
    assert lowering_refusal(TamperedCell(config)) == hook_refusal(
        "memory cell", "TamperedCell", "run", "ClassABMemoryCell"
    )
    assert lowering_refusal(ExoticQuantizer()) == subclass_refusal(
        "quantizer", "ExoticQuantizer"
    )
    assert lowering_refusal(object()) is None


def test_probe_refusal_pairing():
    assert probe_refusal(SignalProbe("base")) is None
    assert probe_refusal(PairedProbe("ok")) is None
    assert probe_refusal(UnpairedProbe("bad")) == probe_pair_refusal(
        "UnpairedProbe"
    )


def _stimuli(n_lanes=2, n_steps=64):
    t = np.arange(n_steps)
    carrier = np.sin(2.0 * np.pi * 5.0 * t / n_steps)
    amplitudes = 3e-6 * np.array([1.0, 0.5])[:n_lanes]
    return amplitudes[:, None] * carrier[None, :]


def test_metadata_subclass_batches_bit_exactly():
    """The protocol's new capability: a metadata subclass still lowers
    and stays byte-identical to its own scalar loop."""
    stimuli = _stimuli()
    runner = batch_runner_for(
        AnnotatedCell(paper_cell_config()),
        n_lanes=stimuli.shape[0],
        n_steps=stimuli.shape[1],
    )
    batch = runner.run(stimuli)
    # The runner drains its device's streams; the scalar reference
    # runs on an identically built twin.
    device = AnnotatedCell(paper_cell_config())
    scalar = np.empty_like(stimuli)
    with force_scalar():
        for lane in range(stimuli.shape[0]):
            device.reset()
            scalar[lane] = device.run(stimuli[lane])
    assert batch.tobytes() == scalar.tobytes()


def test_behavioural_override_refuses_batch_with_named_reason():
    device = TamperedLine(paper_cell_config(), n_cells=2)
    with pytest.raises(BatchUnsupported) as excinfo:
        batch_runner_for(device, 2, 16)
    assert str(excinfo.value) == hook_refusal(
        "delay line", "TamperedLine", "step", "DelayLine"
    )


def test_unpaired_probe_refuses_batch():
    cell = ClassABMemoryCell(paper_cell_config())
    cell._probe = UnpairedProbe("cell.input")
    with pytest.raises(BatchUnsupported) as excinfo:
        batch_runner_for(cell, 2, 16)
    assert str(excinfo.value) == probe_pair_refusal("UnpairedProbe")


def test_unpaired_probe_falls_back_on_the_single_path(fallback_notes):
    cell = ClassABMemoryCell(paper_cell_config())
    cell._probe = UnpairedProbe("cell.input")
    with use_registry(InstrumentRegistry()) as scope:
        assert run_single(cell, _stimuli(n_lanes=1)[0]) is None
    reasons = fallback_notes(scope)
    assert any(probe_pair_refusal("UnpairedProbe") in r for r in reasons)


def test_paired_probe_keeps_the_batch_lowering():
    cell = ClassABMemoryCell(paper_cell_config())
    cell._probe = PairedProbe("cell.input")
    runner = batch_runner_for(cell, 2, 16)
    assert runner is not None
