"""Property suite: the engine ladder is byte-identical to the scalar oracle.

The kernel tier's contract (docs/RUNTIME.md) is *byte*-equality with
``force_scalar()`` -- not approximate agreement -- across every
lowerable design, including dithered quantizers, metastability bands,
DAC reference noise, and telemetry-probed runs.  Hypothesis drives the
device variants and stimuli; each drawn case runs once through the
scalar loop and once per engine rung on an identically-seeded twin.

Probe statistics are the one deliberate exception: ``observe_array``
accumulates with pairwise summation while the scalar loop's
``observe`` is sequential, so means/rms agree to 1e-12 relative, not
bitwise (the same contract ``tests/telemetry`` asserts).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import paper_cell_config
from repro.deltasigma.chopper_modulator import ChopperStabilizedSIModulator
from repro.deltasigma.dac import FeedbackDac
from repro.deltasigma.dither import DitheredQuantizer
from repro.deltasigma.modulator1 import SIModulator1
from repro.deltasigma.modulator2 import SIModulator2
from repro.deltasigma.quantizer import CurrentQuantizer
from repro.observability.instruments import get_registry, snapshot_delta
from repro.runtime.engine import consume_fallbacks, force_scalar, use_engine
from repro.runtime.sweeps import run_sweep, sweep_spec_for_design
from repro.telemetry.designs import TRACE_DESIGNS
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


def _build_modulator(kind, dither, metastable, dac_noise):
    kwargs = dict(
        offset=1e-8 if metastable else 0.0,
        hysteresis=2e-9 if metastable else 0.0,
        metastability_band=5e-8 if metastable else 0.0,
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
        metastable=st.booleans(),
        dac_noise=st.booleans(),
        engine=st.sampled_from(ENGINES),
        amplitude=st.floats(min_value=1e-7, max_value=6e-6),
        n=st.integers(min_value=16, max_value=512),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_engine_matches_scalar_oracle(
        self, kind, dither, metastable, dac_noise, engine, amplitude, n, seed
    ):
        stimulus = _stimulus(n, amplitude, seed)
        reference = _build_modulator(kind, dither, metastable, dac_noise)
        with force_scalar():
            want = reference.run(stimulus)
        device = _build_modulator(kind, dither, metastable, dac_noise)
        with use_engine(engine):
            got = device.run(stimulus)
        assert got.tobytes() == want.tobytes()
        # The loop state the next run would start from must match too.
        assert (
            device.quantizer._last_decision
            == reference.quantizer._last_decision
        )

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
        reference = _build_modulator(kind, dither, True, True)
        with force_scalar():
            reference.run(stimulus)
        device = _build_modulator(kind, dither, True, True)
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
            device = _build_modulator(kind, True, True, True)
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
        registry = get_registry()
        before = registry.snapshot()
        got, got_probes = probed(use_engine(engine))
        delta = snapshot_delta(before, registry.snapshot())
        assert got.tobytes() == want.tobytes()
        _assert_probe_stats_match(got_probes, want_probes)
        runs = delta["instruments"]["repro.engine.runs"]["series"]
        assert [
            (entry["labels"]["engine"], entry["value"]) for entry in runs
        ] == [("kernel", 1.0)]


class TestTraceDesignParity:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("name", sorted(TRACE_DESIGNS))
    def test_probed_run_matches_scalar_oracle(self, name, engine):
        # The paper pipeline runs its devices with telemetry attached;
        # the ladder must stay byte-identical with probes feeding.
        setup = TRACE_DESIGNS[name]
        n = 2048
        t = np.arange(n) / setup.sample_rate
        stimulus = setup.amplitude * np.sin(
            2.0 * np.pi * setup.frequency * t
        )

        def probed(context):
            device = setup.build()
            session = TelemetrySession(setup.name)
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
