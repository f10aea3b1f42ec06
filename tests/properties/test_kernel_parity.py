"""Property suite: the engine ladder is byte-identical to the scalar oracle.

The kernel tier's contract (docs/RUNTIME.md) is *byte*-equality with
``force_scalar()`` -- not approximate agreement -- across every
lowerable design, including dithered quantizers, metastability bands,
DAC reference noise, and telemetry-probed runs.  Hypothesis drives the
device variants and stimuli; each drawn case runs once through the
scalar loop and once per engine rung on an identically-seeded twin;
the batch rung runs many lanes at once against the oracle run lane by
lane on a twin reset between lanes.

Probe statistics are the one deliberate exception: ``observe_array``
accumulates with pairwise summation while the scalar loop's
``observe`` is sequential, so means/rms agree to 1e-12 relative, not
bitwise (the same contract ``tests/telemetry`` asserts).
"""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.config import paper_cell_config
from repro.deltasigma.chopper_modulator import ChopperStabilizedSIModulator
from repro.deltasigma.dac import FeedbackDac
from repro.deltasigma.dither import DitheredQuantizer
from repro.deltasigma.modulator1 import SIModulator1
from repro.deltasigma.modulator2 import SIModulator2
from repro.deltasigma.quantizer import CurrentQuantizer
from repro.designs import DESIGNS
from repro.observability.instruments import InstrumentRegistry, use_registry
from repro.runtime.batch import batch_runner_for
from repro.runtime.engine import consume_fallbacks, force_scalar, use_engine
from repro.runtime.kernels import store_batch
from repro.runtime.kernels.spec import CellSpec, drawn_streams
from repro.runtime.kernels.store import LaneStore
from repro.runtime.sweeps import run_sweep, sweep_spec_for_design
from repro.si.memory_cell import ClassABMemoryCell, class_ab_split
from repro.systems.stimulus import coherent_frequency
from repro.telemetry.probes import SignalProbe
from repro.telemetry.session import TelemetrySession

CONFIG = paper_cell_config(sample_rate=2.45e6)

#: Every selectable single-run rung; ``scalar`` included so the pin
#: itself is covered (it must reproduce the oracle trivially).
ENGINES = ("auto", "kernel", "scalar")

#: Every sweep rung: single-run rungs lane by lane, plus ``batch``,
#: which runs all lanes of a shard lane-major.
SWEEP_ENGINES = ("auto", "batch", "kernel", "scalar")

MODULATOR_KINDS = {
    "chopper": ChopperStabilizedSIModulator,
    "modulator1": SIModulator1,
    "modulator2": SIModulator2,
}


#: Quantiser nonidealities, drawn independently: (offset, hysteresis,
#: metastability band).  Each switches a different fold of the
#: generated decision, so all eight combinations must be reachable.
QUANTIZER_FLAGS = st.tuples(st.booleans(), st.booleans(), st.booleans())

#: Every quantiser nonideality on.
ALL_NONIDEAL = (True, True, True)


def _build_modulator(kind, dither, quantizer_flags, dac_noise):
    offset, hysteresis, band = quantizer_flags
    kwargs = dict(
        offset=1e-8 if offset else 0.0,
        hysteresis=2e-9 if hysteresis else 0.0,
        metastability_band=5e-8 if band else 0.0,
        seed=11,
    )
    quantizer = (
        DitheredQuantizer(2e-7, **kwargs)
        if dither
        else CurrentQuantizer(**kwargs)
    )
    dac = (
        FeedbackDac(6e-6, reference_noise_rms=3e-8, seed=5)
        if dac_noise
        else None
    )
    return MODULATOR_KINDS[kind](cell_config=CONFIG, quantizer=quantizer, dac=dac)


def _stimulus(n, amplitude, seed):
    rng = np.random.default_rng(seed)
    tone = amplitude * np.sin(2.0 * np.pi * 2e3 * np.arange(n) / 2.45e6)
    return tone + 0.05 * amplitude * rng.standard_normal(n)


def _assert_probe_stats_match(got_probes, want_probes):
    """Counts exact; mean, RMS and peak to summation-order rounding."""
    assert set(got_probes) == set(want_probes)
    for name, want in want_probes.items():
        got = got_probes[name]
        assert got.count == want.count
        for a, b in ((got.mean, want.mean), (got.rms, want.rms), (got.peak, want.peak)):
            assert a == b or math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)


class UnpairedProbe(SignalProbe):
    """Overrides ``observe`` without ``observe_array`` (unpaired)."""

    def observe(self, value):
        super().observe(value)


@pytest.fixture(autouse=True)
def _drain_fallback_notes():
    """Keep one case's engine-fallback notes out of the next case."""
    yield
    consume_fallbacks()


class TestModulatorParity:
    @settings(max_examples=24, deadline=None)
    @given(
        kind=st.sampled_from(sorted(MODULATOR_KINDS)),
        dither=st.booleans(),
        quantizer=QUANTIZER_FLAGS,
        dac_noise=st.booleans(),
        engine=st.sampled_from(ENGINES),
        amplitude=st.floats(min_value=1e-7, max_value=6e-6),
        n=st.integers(min_value=16, max_value=512),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_engine_matches_scalar_oracle(
        self, kind, dither, quantizer, dac_noise, engine, amplitude, n, seed
    ):
        stimulus = _stimulus(n, amplitude, seed)
        reference = _build_modulator(kind, dither, quantizer, dac_noise)
        with force_scalar():
            want = reference.run(stimulus)
        device = _build_modulator(kind, dither, quantizer, dac_noise)
        with use_engine(engine):
            got = device.run(stimulus)
        assert got.tobytes() == want.tobytes()
        # The loop state the next run would start from must match too.
        assert (
            device.quantizer._last_decision
            == reference.quantizer._last_decision
        )

    @settings(max_examples=16, deadline=None)
    @given(
        kind=st.sampled_from(sorted(MODULATOR_KINDS)),
        dither=st.booleans(),
        quantizer=QUANTIZER_FLAGS,
        dac_noise=st.booleans(),
        n_lanes=st.integers(min_value=1, max_value=40),
        amplitude=st.floats(min_value=1e-7, max_value=6e-6),
        n=st.integers(min_value=16, max_value=96),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    # An offset without hysteresis folds the threshold to a literal, so
    # nothing may read the decision the lane layout no longer keeps.
    @example(
        kind="modulator2",
        dither=False,
        quantizer=(True, False, False),
        dac_noise=False,
        n_lanes=3,
        amplitude=3e-6,
        n=64,
        seed=0,
    )
    # The narrowest widths the stacked (stages, 2, lanes) views see.
    @example(
        kind="modulator2",
        dither=False,
        quantizer=(False, False, False),
        dac_noise=True,
        n_lanes=1,
        amplitude=3e-6,
        n=64,
        seed=1,
    )
    @example(
        kind="chopper",
        dither=True,
        quantizer=ALL_NONIDEAL,
        dac_noise=False,
        n_lanes=2,
        amplitude=5e-6,
        n=64,
        seed=2,
    )
    def test_batch_matches_lane_sequential_oracle(
        self, kind, dither, quantizer, dac_noise, n_lanes, amplitude, n, seed
    ):
        # The batch rung runs all lanes of one device at once; lane k
        # must equal the k-th run of a twin reset between lanes, and
        # every stream must end where the twin's does.
        scales = np.linspace(1.0, 0.05, n_lanes)
        stimuli = np.array(
            [
                _stimulus(n, amplitude * scale, seed + lane)
                for lane, scale in enumerate(scales)
            ]
        )
        reference = _build_modulator(kind, dither, quantizer, dac_noise)
        want = np.empty_like(stimuli)
        with force_scalar():
            for lane in range(n_lanes):
                reference.reset()
                want[lane] = reference.run(stimuli[lane])
        device = _build_modulator(kind, dither, quantizer, dac_noise)
        got = batch_runner_for(device, n_lanes, n).run(stimuli)
        assert got.tobytes() == want.tobytes()
        noise, loop = drawn_streams(device)
        want_noise, want_loop = drawn_streams(reference)
        assert sorted(loop) == sorted(want_loop)
        for stream, oracle in zip(
            [*noise, *loop.values()], [*want_noise, *want_loop.values()]
        ):
            assert stream.next() == oracle.next()

    @settings(max_examples=12, deadline=None)
    @given(
        kind=st.sampled_from(sorted(MODULATOR_KINDS)),
        dither=st.booleans(),
        engine=st.sampled_from(ENGINES),
        n=st.integers(min_value=16, max_value=256),
    )
    def test_streams_advance_identically(self, kind, dither, engine, n):
        # After a run, every noise stream must sit at the same position
        # as the scalar oracle's, or the *next* run would diverge: the
        # first post-run draw is compared for the quantizer, dither and
        # DAC streams.
        stimulus = _stimulus(n, 3e-6, seed=1)
        reference = _build_modulator(kind, dither, ALL_NONIDEAL, True)
        with force_scalar():
            reference.run(stimulus)
        device = _build_modulator(kind, dither, ALL_NONIDEAL, True)
        with use_engine(engine):
            device.run(stimulus)
        assert device.quantizer._stream.next() == reference.quantizer._stream.next()
        assert device.dac._stream.next() == reference.dac._stream.next()
        if dither:
            assert (
                device.quantizer._dither.next()
                == reference.quantizer._dither.next()
            )


class TestLoopProbeParity:
    @pytest.mark.parametrize("engine", ("auto", "kernel"))
    @pytest.mark.parametrize("kind", sorted(MODULATOR_KINDS))
    def test_unpaired_loop_probes_stay_on_the_kernel(self, kind, engine):
        # Every rung's own run() feeds a modulator's <name>.input and
        # <name>.bitstream probes through observe_array, so an unpaired
        # probe subclass there cannot make rungs disagree: the run must
        # stay on the kernel, byte-identical to the scalar oracle.
        stimulus = _stimulus(256, 3e-6, seed=5)

        def probed(context):
            device = _build_modulator(kind, True, ALL_NONIDEAL, True)
            session = TelemetrySession(f"loop-probes-{kind}")
            device.attach_telemetry(session)
            for suffix in ("input", "bitstream"):
                name = f"{device._telemetry_name}.{suffix}"
                session.probes[name] = UnpairedProbe(
                    name, full_scale=device.full_scale
                )
            with context:
                out = device.run(stimulus)
            return out, session.probes

        want, want_probes = probed(force_scalar())
        registry = InstrumentRegistry()
        with use_registry(registry):
            got, got_probes = probed(use_engine(engine))
        assert got.tobytes() == want.tobytes()
        _assert_probe_stats_match(got_probes, want_probes)
        runs = registry.snapshot()["instruments"]["repro.engine.runs"]["series"]
        assert [
            (entry["labels"]["engine"], entry["value"]) for entry in runs
        ] == [("kernel", 1.0)]


class TestTraceDesignParity:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "name", sorted(name for name, design in DESIGNS.items() if design.operating_point)
    )
    def test_probed_run_matches_scalar_oracle(self, name, engine):
        # The paper pipeline runs its devices with telemetry attached;
        # the ladder must stay byte-identical with probes feeding.
        design = DESIGNS[name]
        point = design.point
        n = 2048
        t = np.arange(n) / point.sample_rate
        stimulus = point.amplitude * np.sin(
            2.0 * np.pi * point.frequency * t
        )

        def probed(context):
            device = design.build()
            session = TelemetrySession(design.name)
            device.attach_telemetry(session)
            with context:
                out = device.run(stimulus)
            return out, session.probes

        want, want_probes = probed(force_scalar())
        got, got_probes = probed(use_engine(engine))
        assert got.tobytes() == want.tobytes()
        _assert_probe_stats_match(got_probes, want_probes)


class TestSweepParity:
    def test_sweep_identical_on_every_engine(self):
        # One compact dynamic-range sweep per rung: identical SNDR
        # arrays (bitwise), so `repro report --engine X` can promise
        # identical manifests for any X.
        spec = sweep_spec_for_design(
            "modulator2", levels_db=(-40.0, -20.0, -10.0)
        )
        results = {
            engine: run_sweep(spec, engine=engine) for engine in SWEEP_ENGINES
        }
        want = results["scalar"]
        for engine, got in results.items():
            assert got.sndr_db.tobytes() == want.sndr_db.tobytes(), engine
            assert got.metrics == want.metrics, engine

    @settings(max_examples=8, deadline=None)
    @given(
        kind=st.sampled_from(sorted(MODULATOR_KINDS)),
        dither=st.booleans(),
        quantizer=QUANTIZER_FLAGS,
        dac_noise=st.booleans(),
    )
    def test_drawn_loops_sweep_identically(self, kind, dither, quantizer, dac_noise):
        # The sweep's shard routing on drawn loop variants: a short
        # two-level sweep returns the same metrics on every rung.
        base = sweep_spec_for_design("modulator2", levels_db=(-30.0, -6.0))
        n = 2048
        spec = replace(
            base,
            n_samples=n,
            settle_samples=64,
            signal_frequency=coherent_frequency(20e3, base.sample_rate, n),
            bandwidth=60e3,
        )

        def build(_spec):
            return _build_modulator(kind, dither, quantizer, dac_noise)

        with mock.patch("repro.runtime.sweeps._build_device", build):
            results = {
                engine: run_sweep(spec, engine=engine) for engine in SWEEP_ENGINES
            }
        want = results["scalar"]
        for engine, got in results.items():
            assert got.metrics == want.metrics, engine


def _store_value(config, target):
    """The value ``_store_half`` settles towards: split, then both error models."""
    device_n, _ = class_ab_split(target, config.quiescent_current)
    value = config.transmission.apply(target, device_n)
    return value + config.injection.error_current(device_n)


#: The slew modes a store case draws: no, some or every element slews.
_SLEW_MODES = ("none", "some", "all")


def _store_config(draw):
    """The paper cell config, or one with distinct clamp floors."""
    if draw(st.booleans()):
        return replace(
            CONFIG, injection=replace(CONFIG.injection, quiescent_current=4e-6)
        )
    return CONFIG


def _store_arrays(draw, config, mode, shape):
    """Draw ``shape`` previous/target arrays in which ``mode`` elements slew.

    ``mode`` fixes whether none, some or all elements slew
    (``|delta| > bias``); every step sits at least 10% of the bias away
    from that boundary, so rounding cannot move an element across it.
    Targets and previous values include zero, and targets below
    -2.5 mA put the n-device current under both clamp floors.
    """
    bias = config.gga.bias_current
    kick = config.gga.phase_kick_fraction
    size = shape[0] * shape[1]
    if mode == "some":
        rest = draw(st.lists(st.booleans(), min_size=size - 2, max_size=size - 2))
        slews = draw(st.permutations([True, False, *rest]))
    else:
        slews = [mode == "all"] * size
    previous, target = [], []
    for slew in slews:
        ratio = st.floats(1.1, 40.0) if slew else st.floats(0.0, 0.9)
        step = draw(st.sampled_from((1.0, -1.0))) * bias * draw(ratio)
        if draw(st.booleans()):
            # From zero charge, delta = (1 + kick) * value, about that
            # times the target.
            previous.append(0.0)
            target.append(step / (1.0 + kick))
        else:
            current = draw(
                st.one_of(
                    st.just(0.0),
                    st.floats(-1.5 * bias, 1.5 * bias),
                    st.floats(-6e-3, -2.5e-3),
                )
            )
            value = _store_value(config, current)
            previous.append(value + kick * value - step)
            target.append(current)
    return np.reshape(previous, shape), np.reshape(target, shape)


@st.composite
def _store_cases(draw):
    """A cell, the drawn slew mode, and ``(rows, lanes)`` previous/target arrays."""
    config = _store_config(draw)
    mode = draw(st.sampled_from(_SLEW_MODES))
    rows = draw(st.integers(min_value=1, max_value=4))
    lanes = draw(st.integers(min_value=2 if mode == "some" else 1, max_value=6))
    previous, target = _store_arrays(draw, config, mode, (rows, lanes))
    return ClassABMemoryCell(config), mode, previous, target


@st.composite
def _store_sequences(draw):
    """A cell and a sequence of same-shape store calls mixing every slew mode."""
    config = _store_config(draw)
    shape = (
        draw(st.integers(min_value=1, max_value=4)),
        draw(st.integers(min_value=2, max_value=6)),
    )
    extra = draw(st.lists(st.sampled_from(_SLEW_MODES), max_size=4))
    modes = draw(st.permutations([*_SLEW_MODES, *extra]))
    calls = [(mode, *_store_arrays(draw, config, mode, shape)) for mode in modes]
    return ClassABMemoryCell(config), calls


def _scalar_store(cell, previous, target):
    """Store element by element through ``_store_half``: values and slews."""
    return zip(
        *(
            cell._store_half(p, t)
            for p, t in zip(previous.ravel().tolist(), target.ravel().tolist())
        )
    )


class TestStoreBatchParity:
    @settings(max_examples=80, deadline=None)
    @given(case=_store_cases())
    def test_matches_scalar_store_half(self, case):
        # Both settling regimes in one call: store_batch must equal the
        # scalar half-circuit store element by element, whether no
        # element, some or every element slews.
        cell, mode, previous, target = case
        want, slewed = _scalar_store(cell, previous, target)
        assert any(slewed) == (mode != "none")
        assert all(slewed) == (mode == "all")
        got = store_batch(previous, target, CellSpec.from_cell(cell))
        assert got.shape == previous.shape
        assert got.tobytes() == np.array(want).reshape(previous.shape).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(case=_store_sequences())
    def test_buffered_store_matches_across_calls(self, case):
        # The lane layout reuses one store every period: whatever an
        # earlier call, slow path or fast, left in the shared scratch
        # arrays, each call must equal the scalar store element by
        # element.
        cell, calls = case
        store = LaneStore(CellSpec.from_cell(cell), calls[0][1].shape)
        for mode, previous, target in calls:
            want, slewed = _scalar_store(cell, previous, target)
            assert any(slewed) == (mode != "none")
            store.state[...] = previous
            store.target[...] = target
            store()
            want_bytes = np.array(want).reshape(previous.shape).tobytes()
            assert store.state.tobytes() == want_bytes, mode
