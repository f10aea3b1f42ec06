"""Bit-exact equivalence of the batch runners against the scalar loops.

The whole value of :mod:`repro.runtime.batch` rests on one claim: for
every supported device, running N lanes through the vectorized runner
produces *byte-identical* output to driving an identically built twin
scalar device lane by lane (reset between lanes, the random streams
running on).  The runner drains the device's own live streams, so the
batch and the scalar reference each get their own device.  These tests
assert that claim with ``tobytes()`` -- no tolerance, ever -- across
noise on/off, mismatch, seeded and unseeded randomness, and every
device type, plus the refusal cases where a bit-exact lowering is
impossible.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import (
    MODULATOR_CLOCK,
    delay_line_cell_config,
    paper_cell_config,
)
from dataclasses import replace
from repro.deltasigma import (
    ChopperStabilizedSIModulator,
    SIModulator1,
    SIModulator2,
)
from repro.deltasigma.dac import FeedbackDac
from repro.deltasigma.dither import DitheredQuantizer
from repro.deltasigma.quantizer import CurrentQuantizer
from repro.runtime.batch import (
    BatchUnsupported,
    batch_runner_for,
    fast_forward_streams,
)
from repro.observability.instruments import InstrumentRegistry, use_registry
from repro.runtime.engine import force_scalar
from repro.runtime.kernels import device_parts
from repro.runtime.kernels.spec import drawn_streams
from repro.runtime.sweeps import run_sweep, sweep_spec_for_design
from repro.si import DelayLine
from repro.si.cascade import BiquadCascade
from repro.si.memory_cell import ClassABMemoryCell
from repro.telemetry.session import TelemetrySession

N_LANES = 3
N_STEPS = 400

#: One device per kind of unseeded randomness a run can draw.
UNSEEDED_DEVICES = {
    "noise": lambda config: ClassABMemoryCell(replace(config, seed=None)),
    "metastability": lambda config: SIModulator2(
        cell_config=config,
        quantizer=CurrentQuantizer(metastability_band=8e-8, seed=None),
    ),
    "reference": lambda config: SIModulator2(
        cell_config=config,
        dac=FeedbackDac(reference_noise_rms=3e-8, seed=None),
    ),
    "dither": lambda config: SIModulator2(
        cell_config=config,
        quantizer=DitheredQuantizer(dither_rms=1e-8, seed=None),
    ),
}


def _stimuli(n_lanes: int = N_LANES, n_steps: int = N_STEPS) -> np.ndarray:
    t = np.arange(n_steps)
    carrier = np.sin(2.0 * np.pi * 13.0 * t / n_steps)
    amplitudes = 3e-6 * 10.0 ** (-np.arange(n_lanes, dtype=float) * 0.5)
    return amplitudes[:, None] * carrier[None, :]


def _scalar_lanes(device, stimuli: np.ndarray) -> np.ndarray:
    """The reference semantics: lane-sequential runs on one device."""
    outputs = np.empty_like(stimuli)
    for lane in range(stimuli.shape[0]):
        device.reset()
        outputs[lane] = device.run(stimuli[lane])
    return outputs


def _assert_bit_identical(make_device, stimuli: np.ndarray) -> None:
    """Batch-run one device and scalar-run an identically built twin."""
    runner = batch_runner_for(
        make_device(), n_lanes=stimuli.shape[0], n_steps=stimuli.shape[1]
    )
    batch = runner.run(stimuli)
    with force_scalar():
        scalar = _scalar_lanes(make_device(), stimuli)
    assert batch.tobytes() == scalar.tobytes()


class TestDeviceEquivalence:
    def test_memory_cell(self):
        config = paper_cell_config(sample_rate=MODULATOR_CLOCK)
        _assert_bit_identical(lambda: ClassABMemoryCell(config), _stimuli())

    def test_memory_cell_noiseless(self):
        config = replace(
            paper_cell_config(sample_rate=MODULATOR_CLOCK),
            thermal_noise_rms=0.0,
        )
        _assert_bit_identical(lambda: ClassABMemoryCell(config), _stimuli())

    def test_memory_cell_with_mismatch(self):
        config = replace(
            paper_cell_config(sample_rate=MODULATOR_CLOCK),
            half_gain_mismatch=0.01,
        )
        _assert_bit_identical(lambda: ClassABMemoryCell(config), _stimuli())

    def test_delay_line(self):
        _assert_bit_identical(
            lambda: DelayLine(delay_line_cell_config(), n_cells=2), _stimuli()
        )

    def test_delay_line_with_one_probed_cell(self):
        # The cells' specs differ only in their probe flag: the fused
        # bank compares store constants, so the line still lowers, and
        # the one probe sees exactly what the scalar run observes.
        from repro.telemetry.session import TelemetrySession

        def make(session):
            line = DelayLine(delay_line_cell_config(), n_cells=2)
            line.cells[0].attach_telemetry(session, "line.cell0")
            return line

        stimuli = _stimuli()
        scalar_session = TelemetrySession("line-scalar")
        with force_scalar():
            scalar = _scalar_lanes(make(scalar_session), stimuli)
        batch_session = TelemetrySession("line-batch")
        batch = batch_runner_for(make(batch_session), *stimuli.shape).run(stimuli)

        assert batch.tobytes() == scalar.tobytes()
        (name,) = scalar_session.probes
        expected = scalar_session.probes[name]
        lowered = batch_session.probes[name]
        assert lowered.count == expected.count
        assert lowered.minimum == expected.minimum
        assert lowered.maximum == expected.maximum
        assert lowered.rms == pytest.approx(expected.rms, rel=1e-12)

    def test_biquad_cascade(self):
        _assert_bit_identical(
            lambda: BiquadCascade(
                center_frequency=10e3,
                n_sections=2,
                sample_rate=MODULATOR_CLOCK,
                config=paper_cell_config(sample_rate=MODULATOR_CLOCK),
            ),
            _stimuli(),
        )

    def test_modulator1(self):
        config = paper_cell_config(sample_rate=MODULATOR_CLOCK)
        _assert_bit_identical(lambda: SIModulator1(cell_config=config), _stimuli())

    def test_modulator2(self):
        config = paper_cell_config(sample_rate=MODULATOR_CLOCK)
        _assert_bit_identical(lambda: SIModulator2(cell_config=config), _stimuli())

    def test_chopper(self):
        config = paper_cell_config(sample_rate=MODULATOR_CLOCK)
        _assert_bit_identical(
            lambda: ChopperStabilizedSIModulator(cell_config=config), _stimuli()
        )

    def test_modulator2_with_degradations(self):
        config = replace(
            paper_cell_config(sample_rate=MODULATOR_CLOCK),
            thermal_noise_rms=66e-9,
            half_gain_mismatch=0.02,
        )
        _assert_bit_identical(lambda: SIModulator2(cell_config=config), _stimuli())

    def test_modulator2_metastable_quantizer(self):
        # Metastability lowers: the batch quantizer drains the whole
        # uniform stream up front and slices it lane-major.
        config = paper_cell_config(sample_rate=MODULATOR_CLOCK)
        _assert_bit_identical(
            lambda: SIModulator2(
                cell_config=config,
                quantizer=CurrentQuantizer(metastability_band=8e-8, seed=11),
            ),
            _stimuli(),
        )

    def test_modulator2_noisy_dac(self):
        config = paper_cell_config(sample_rate=MODULATOR_CLOCK)
        _assert_bit_identical(
            lambda: SIModulator2(
                cell_config=config,
                dac=FeedbackDac(reference_noise_rms=3e-8, seed=12),
            ),
            _stimuli(),
        )

    def test_chopper_metastable_and_noisy(self):
        config = paper_cell_config(sample_rate=MODULATOR_CLOCK)
        _assert_bit_identical(
            lambda: ChopperStabilizedSIModulator(
                cell_config=config,
                quantizer=CurrentQuantizer(
                    offset=1e-8, hysteresis=2e-8, metastability_band=8e-8, seed=13
                ),
                dac=FeedbackDac(level_mismatch=0.01, reference_noise_rms=3e-8, seed=14),
            ),
            _stimuli(),
        )

    def test_probed_modulator_lowers(self):
        # Attached probes no longer refuse: the batch runner buffers the
        # scalar loop's observation targets and feeds them lane-major,
        # so counts and extrema match the scalar run exactly.
        from repro.telemetry.session import TelemetrySession

        config = paper_cell_config(sample_rate=MODULATOR_CLOCK)
        stimuli = _stimuli()

        scalar_session = TelemetrySession("probe-scalar")
        scalar_device = SIModulator2(cell_config=config)
        scalar_device.attach_telemetry(scalar_session)
        scalar = _scalar_lanes(scalar_device, stimuli)

        batch_session = TelemetrySession("probe-batch")
        batch_device = SIModulator2(cell_config=config)
        batch_device.attach_telemetry(batch_session)
        batch = batch_runner_for(
            batch_device, n_lanes=stimuli.shape[0], n_steps=stimuli.shape[1]
        ).run(stimuli)

        assert batch.tobytes() == scalar.tobytes()
        assert sorted(batch_session.probes) == sorted(scalar_session.probes)
        for name, expected in scalar_session.probes.items():
            lowered = batch_session.probes[name]
            assert lowered.count == expected.count
            assert lowered.minimum == expected.minimum
            assert lowered.maximum == expected.maximum
            assert lowered.clip_fraction == expected.clip_fraction
            assert lowered.rms == pytest.approx(expected.rms, rel=1e-12)
            assert lowered.mean == pytest.approx(expected.mean, rel=1e-9, abs=1e-24)


class TestLaneOffset:
    def test_offset_runner_matches_tail_lanes(self):
        # A shard whose first lane is k fast-forwards its fresh device's
        # streams by k lanes and must reproduce lanes k..N of the full
        # run exactly -- this is what makes the sharded sweep
        # independent of its chunk layout.  Every stream kind is live.
        config = paper_cell_config(sample_rate=MODULATOR_CLOCK)

        def make():
            return SIModulator2(
                cell_config=config,
                quantizer=DitheredQuantizer(
                    dither_rms=1e-8, metastability_band=8e-8, seed=11
                ),
                dac=FeedbackDac(reference_noise_rms=3e-8, seed=12),
            )

        stimuli = _stimuli(n_lanes=5)
        full = batch_runner_for(make(), 5, N_STEPS).run(stimuli)
        shard = make()
        fast_forward_streams(shard, 2 * N_STEPS)
        tail = batch_runner_for(shard, 3, N_STEPS).run(stimuli[2:])
        assert tail.tobytes() == full[2:].tobytes()


class TestBatchShapeProperty:
    @settings(max_examples=15, deadline=None)
    @given(
        n_lanes=st.integers(min_value=1, max_value=6),
        n_steps=st.integers(min_value=8, max_value=96),
        amplitude=st.floats(min_value=1e-8, max_value=6e-6),
    )
    def test_memory_cell_any_shape(self, n_lanes, n_steps, amplitude):
        config = paper_cell_config(sample_rate=MODULATOR_CLOCK)
        t = np.arange(n_steps)
        carrier = np.sin(2.0 * np.pi * 3.0 * t / max(n_steps, 1))
        scales = np.linspace(1.0, 0.25, n_lanes)
        stimuli = amplitude * scales[:, None] * carrier[None, :]
        _assert_bit_identical(lambda: ClassABMemoryCell(config), stimuli)


class TestRefusals:
    def test_unknown_device(self):
        with pytest.raises(BatchUnsupported):
            batch_runner_for(object(), 2, 16)

    def test_bad_shape_arguments(self):
        config = paper_cell_config(sample_rate=MODULATOR_CLOCK)
        with pytest.raises(ValueError):
            batch_runner_for(ClassABMemoryCell(config), 0, 16)

    @pytest.mark.parametrize("name", sorted(UNSEEDED_DEVICES))
    def test_unseeded_device_lowers(self, name, monkeypatch):
        # The runner drains the device's own live streams, so unseeded
        # randomness lowers like seeded randomness.  Pinning what an
        # unseeded generator draws lets two twins draw the same streams.
        real_rng = np.random.default_rng
        monkeypatch.setattr(
            np.random,
            "default_rng",
            lambda seed=None: real_rng(1234 if seed is None else seed),
        )
        config = paper_cell_config(sample_rate=MODULATOR_CLOCK)
        _assert_bit_identical(lambda: UNSEEDED_DEVICES[name](config), _stimuli())

    def test_unseeded_noiseless_allowed(self):
        config = replace(
            paper_cell_config(sample_rate=MODULATOR_CLOCK),
            seed=None,
            thermal_noise_rms=0.0,
        )
        _assert_bit_identical(lambda: ClassABMemoryCell(config), _stimuli())

    def test_seeded_dither_lowers(self):
        # A DitheredQuantizer joins the protocol: its dither comes from
        # a chunked GaussianStream, so the batch engine drains it like
        # the metastability stream instead of refusing.
        config = paper_cell_config(sample_rate=MODULATOR_CLOCK)
        modulator = SIModulator2(
            cell_config=config,
            quantizer=DitheredQuantizer(dither_rms=1e-8, seed=3),
        )
        batch_runner_for(modulator, 2, 16)

    def test_quantizer_subclass_refused(self):
        # Exact-type checks: an arbitrary quantiser subclass changes
        # behaviour the lowering does not model, so it must refuse.
        class SaturatingQuantizer(CurrentQuantizer):
            def decide(self, input_current: float) -> int:
                return super().decide(min(input_current, 1e-6))

        config = paper_cell_config(sample_rate=MODULATOR_CLOCK)
        modulator = SIModulator2(
            cell_config=config, quantizer=SaturatingQuantizer()
        )
        with pytest.raises(BatchUnsupported):
            batch_runner_for(modulator, 2, 16)

    def test_shape_error_drains_nothing(self):
        # Building a runner has no side effect, and run() checks the
        # stimulus shape before it draws from any stream.
        def make():
            return SIModulator2(
                cell_config=paper_cell_config(sample_rate=MODULATOR_CLOCK),
                quantizer=DitheredQuantizer(
                    dither_rms=1e-8, metastability_band=8e-8, seed=11
                ),
                dac=FeedbackDac(reference_noise_rms=3e-8, seed=12),
            )

        device, twin = make(), make()
        with pytest.raises(ValueError):
            batch_runner_for(device, 3, 100).run(np.zeros((3, 99)))
        noise, loop = drawn_streams(device)
        twin_noise, twin_loop = drawn_streams(twin)
        assert sorted(loop) == ["dacn", "dith", "meta"]
        for got, want in zip(
            [*noise, *loop.values()], [*twin_noise, *twin_loop.values()]
        ):
            assert got.next() == want.next()

    def test_mixed_cell_configurations_refused(self, monkeypatch):
        # The lane layout stores every half with one store_batch call,
        # which takes one cell's constants.  A line whose cells differ
        # electrically refuses by name before drawing anything, and the
        # sweep's fallback still returns the scalar oracle's bytes.
        import repro.runtime.sweeps as sweeps_module

        def make():
            line = DelayLine(delay_line_cell_config(), n_cells=2)
            config = replace(line.cells[1].config, quiescent_current=3e-6)
            line.cells[1] = ClassABMemoryCell(config)
            return line

        device, twin = make(), make()
        refused = InstrumentRegistry()
        with use_registry(refused), pytest.raises(BatchUnsupported) as refusal:
            batch_runner_for(device, 2, 64)
        assert str(refusal.value) == (
            "fused cells must share one electrical configuration"
        )
        delta = refused.snapshot()["instruments"]
        assert [
            (entry["labels"], entry["value"])
            for entry in delta["repro.batch.refusals"]["series"]
        ] == [({"device": "DelayLine"}, 1.0)]
        for cell, twin_cell in zip(device.cells, twin.cells):
            assert cell._noise.next() == twin_cell._noise.next()

        monkeypatch.setattr(sweeps_module, "_build_device", lambda spec: make())
        spec = sweep_spec_for_design("delay-line", levels_db=(-20.0, -6.0))
        with force_scalar():
            want = run_sweep(spec, engine="scalar")
        session = TelemetrySession("mixed-cells")
        registry = InstrumentRegistry()
        with use_registry(registry):
            got = run_sweep(spec, engine="batch", telemetry=session)
        assert got.sndr_db.tobytes() == want.sndr_db.tobytes()
        assert got.metrics == want.metrics
        # The fallback ran each lane on the kernel, and the shard says so.
        runs = registry.snapshot()["instruments"]["repro.engine.runs"]["series"]
        assert [(entry["labels"]["engine"], entry["value"]) for entry in runs] == [
            ("kernel", 2.0)
        ]
        (sweep,) = [root for root in session.roots if root.name == "sweep"]
        assert [
            child.attrs["engine"]
            for child in sweep.children
            if child.name.startswith("shard:")
        ] == ["kernel"]

    def test_device_parts_counts(self):
        config = paper_cell_config(sample_rate=MODULATOR_CLOCK)
        stages, quantizer, dac = device_parts(SIModulator2(cell_config=config))
        assert len(stages) == 2
        assert quantizer is not None and dac is not None
        stages, quantizer, dac = device_parts(DelayLine(delay_line_cell_config()))
        assert len(stages) == 2
        assert quantizer is None and dac is None
