"""Unit tests for the compiled kernel tier and the engine selector.

The byte-equality contract itself is exercised exhaustively by
``tests/properties/test_kernel_parity.py``; this module covers the
machinery around it -- lowering refusals, compile caching, the
state-space analysis view, stream draining, JIT gating, and the
``use_engine`` ladder in ``run_single``.
"""

import numpy as np
import pytest

from repro.config import (
    MODULATOR_CLOCK,
    delay_line_cell_config,
    ideal_cell_config,
    paper_cell_config,
)
from repro.deltasigma.chopper_modulator import ChopperStabilizedSIModulator
from repro.deltasigma.dither import DitheredQuantizer
from repro.deltasigma.modulator1 import SIModulator1
from repro.deltasigma.modulator2 import SIModulator2
from repro.deltasigma.quantizer import CurrentQuantizer
from repro.observability.instruments import get_registry, snapshot_delta
from repro.runtime.engine import (
    ENGINES,
    consume_fallbacks,
    current_engine,
    force_scalar,
    record_engine_run,
    use_engine,
)
from repro.runtime.kernels import (
    KernelUnsupported,
    build_spec,
    compile_spec,
    kernel_refusal,
    loop_transfer,
    run_kernel,
    state_matrices,
)
from repro.runtime.kernels import jit as jit_module
from repro.runtime.lowering import subclass_refusal
from repro.si.cascade import BiquadCascade
from repro.si.delay_line import DelayLine
from repro.si.memory_cell import ClassABMemoryCell

MOD_CONFIG = paper_cell_config(sample_rate=2.45e6)


@pytest.fixture(autouse=True)
def _drain_fallback_notes():
    yield
    consume_fallbacks()


class TestBuildSpec:
    @pytest.mark.parametrize(
        "factory, kind",
        [
            (lambda: ClassABMemoryCell(delay_line_cell_config()), "cell"),
            (lambda: DelayLine(delay_line_cell_config(), n_cells=2), "delay"),
            (
                lambda: BiquadCascade(
                    128e3, 2, 2.56e6, config=delay_line_cell_config()
                ),
                "cascade",
            ),
            (lambda: SIModulator1(cell_config=MOD_CONFIG), "mod1"),
            (lambda: SIModulator2(cell_config=MOD_CONFIG), "mod2"),
        ],
    )
    def test_lowers_supported_devices(self, factory, kind):
        spec = build_spec(factory())
        assert spec.kind == kind
        assert spec.all_stages

    def test_unknown_device_refuses(self):
        with pytest.raises(KernelUnsupported, match="no kernel lowering"):
            build_spec(object())

    def test_behavioural_quantizer_subclass_refuses(self):
        class SaturatingQuantizer(CurrentQuantizer):
            def decide(self, value):
                return super().decide(min(value, 1e-6))

        device = SIModulator2(
            cell_config=MOD_CONFIG, quantizer=SaturatingQuantizer(seed=1)
        )
        assert kernel_refusal(device) is not None
        with pytest.raises(KernelUnsupported):
            build_spec(device)

    def test_unseeded_dither_still_lowers(self):
        # The kernel consumes the device's live streams, so seeds are
        # not required for byte-equality.
        device = SIModulator2(
            cell_config=MOD_CONFIG,
            quantizer=DitheredQuantizer(2e-7, seed=None),
        )
        assert kernel_refusal(device) is None

    def test_kernel_refusal_none_for_supported(self):
        assert kernel_refusal(SIModulator2(cell_config=MOD_CONFIG)) is None


class TestCompileCache:
    def test_equal_specs_share_one_program(self):
        first = build_spec(SIModulator2(cell_config=MOD_CONFIG))
        second = build_spec(SIModulator2(cell_config=MOD_CONFIG))
        assert first == second
        assert compile_spec(first) is compile_spec(second)

    def test_different_specs_compile_separately(self):
        mod1 = compile_spec(build_spec(SIModulator1(cell_config=MOD_CONFIG)))
        mod2 = compile_spec(build_spec(SIModulator2(cell_config=MOD_CONFIG)))
        assert mod1 is not mod2


class TestStateMatrices:
    def test_mod2_factored_form(self):
        device = SIModulator2(cell_config=MOD_CONFIG)
        spec = build_spec(device)
        a, b, c, d = state_matrices(spec)
        g1 = spec.stages[0].gain
        g2 = spec.stages[1].gain
        np.testing.assert_allclose(a, [[1.0, 0.0], [device.a2 * g2, 1.0]])
        np.testing.assert_allclose(
            b, [[device.a1 * g1, -device.a1 * g1], [0.0, -device.b2 * g2]]
        )
        np.testing.assert_allclose(c, [[0.0, 1.0]])
        assert d.shape == (1, 2)

    def test_delay_line_is_a_shift_chain(self):
        spec = build_spec(DelayLine(delay_line_cell_config(), n_cells=2))
        a, b, c, d = state_matrices(spec)
        assert a.shape == (2, 2)
        # One sample in, one state hop per clock, inverting signs folded.
        assert b[0, 0] == 1.0
        assert abs(a[1, 0]) == 1.0
        assert abs(c[0, 1]) == 1.0
        assert d == 0.0

    def test_unknown_kind_refuses(self):
        spec = build_spec(ClassABMemoryCell(delay_line_cell_config()))
        bogus = type(spec)(kind="nope", stages=spec.stages)
        with pytest.raises(KernelUnsupported, match="state-space"):
            state_matrices(bogus)

    @pytest.mark.parametrize(
        "loop", [SIModulator2, ChopperStabilizedSIModulator], ids=["mod2", "chopper"]
    )
    def test_scalar_loop_obeys_state_matrices(self, loop):
        # With ideal cells the scalar oracle's recorded states follow
        # s[n+1] = A s[n] + B [u[n], y[n]] and its decisions read
        # C s[n] >= 0: the matrices loop_transfer closes into Eq. (3)
        # are the loop every rung reproduces.
        device = loop(ideal_cell_config(sample_rate=MODULATOR_CLOCK))
        a, b, c, _ = state_matrices(build_spec(device))
        n = 4096
        x = np.random.default_rng(7).normal(0.0, 2e-6, n)
        trace = device.run(x, record_states=True)
        states = np.stack([trace.state1, trace.state2])
        u = x * (-1.0) ** np.arange(n) if device.chopped else x
        y = trace.decisions * device.full_scale
        step = a @ states[:, :-1] + b @ np.stack([u, y])[:, :-1]
        assert np.max(np.abs(step - states[:, 1:])) <= 1e-12 * np.max(np.abs(states))
        np.testing.assert_array_equal(trace.decisions, np.where(c @ states >= 0.0, 1, -1)[0])


class TestLoopTransfer:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: ClassABMemoryCell(delay_line_cell_config()),
            lambda: DelayLine(delay_line_cell_config(), n_cells=2),
            lambda: BiquadCascade(128e3, 2, 2.56e6, config=delay_line_cell_config()),
        ],
        ids=["cell", "delay", "cascade"],
    )
    def test_open_loop_kinds_refuse(self, factory):
        with pytest.raises(KernelUnsupported, match="no feedback input"):
            loop_transfer(build_spec(factory()), 8)


class TestRunKernel:
    def test_rejects_non_1d_input(self):
        device = ClassABMemoryCell(delay_line_cell_config())
        with pytest.raises(KernelUnsupported, match="not 1-D"):
            run_kernel(device, np.zeros((4, 4)))

    def test_empty_run_preserves_state(self):
        device = ClassABMemoryCell(delay_line_cell_config())
        out = run_kernel(device, np.empty(0))
        assert out.shape == (0,)
        assert device._steps == 0

    def test_writes_back_state_and_counters(self):
        stimulus = 8e-6 * np.sin(np.linspace(0.0, 20.0, 256))
        reference = ClassABMemoryCell(delay_line_cell_config())
        with force_scalar():
            want = reference.run(stimulus)
        device = ClassABMemoryCell(delay_line_cell_config())
        got = run_kernel(device, stimulus)
        assert got.tobytes() == want.tobytes()
        assert device._steps == reference._steps == 256
        assert device._slew_events == reference._slew_events
        assert device._stored == reference._stored
        # The noise stream sits at the same position: next draws agree.
        assert device._noise.take(1)[0] == reference._noise.take(1)[0]


class TestJitGate:
    def test_status_reports_a_reason_or_active(self):
        status = jit_module.jit_status()
        assert status == "active" or status  # non-empty refusal reason

    def test_env_kill_switch(self, monkeypatch):
        monkeypatch.setattr(jit_module, "_PROBED", None)
        monkeypatch.setenv("REPRO_KERNEL_JIT", "0")
        factory, reason = jit_module.jit_availability()
        assert factory is None
        assert reason == "disabled by REPRO_KERNEL_JIT"
        assert jit_module.jit_compile(lambda: None) is None
        monkeypatch.setattr(jit_module, "_PROBED", None)


class TestEngineSelector:
    def test_default_is_auto(self):
        assert current_engine() == "auto"

    def test_use_engine_nests_and_restores(self):
        with use_engine("scalar"):
            assert current_engine() == "scalar"
            with use_engine("kernel"):
                assert current_engine() == "kernel"
            assert current_engine() == "scalar"
        assert current_engine() == "auto"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            with use_engine("vectorized"):
                pass  # pragma: no cover - context never entered

    def test_engines_tuple_is_the_cli_contract(self):
        assert ENGINES == ("auto", "scalar", "kernel")

    def test_record_engine_run_counts_by_labels(self):
        registry = get_registry()
        before = registry.snapshot()
        device = SIModulator2(cell_config=MOD_CONFIG)
        record_engine_run("kernel", device)
        record_engine_run("batch", device, count=5)
        delta = snapshot_delta(before, registry.snapshot())
        series = delta["instruments"]["repro.engine.runs"]["series"]
        by_engine = {
            entry["labels"]["engine"]: entry["value"] for entry in series
        }
        assert by_engine["kernel"] == 1.0
        assert by_engine["batch"] == 5.0
        assert all(
            entry["labels"]["device"] == "SIModulator2" for entry in series
        )


class TestEngineLadder:
    def test_pinned_kernel_falls_back_to_scalar_with_a_note(self):
        class SaturatingQuantizer(CurrentQuantizer):
            def decide(self, value):
                return super().decide(min(value, 1e-6))

        stimulus = 3e-6 * np.sin(np.linspace(0.0, 10.0, 128))
        reference = SIModulator2(
            cell_config=MOD_CONFIG, quantizer=SaturatingQuantizer(seed=1)
        )
        with force_scalar():
            want = reference.run(stimulus)
        consume_fallbacks()
        device = SIModulator2(
            cell_config=MOD_CONFIG, quantizer=SaturatingQuantizer(seed=1)
        )
        with use_engine("kernel"):
            got = device.run(stimulus)
        assert got.tobytes() == want.tobytes()
        notes = consume_fallbacks()
        assert any("SaturatingQuantizer" in note for note in notes)

    def test_auto_refusal_is_noted_once(self):
        class SaturatingQuantizer(CurrentQuantizer):
            def decide(self, value):
                return super().decide(min(value, 1e-6))

        device = SIModulator2(
            cell_config=MOD_CONFIG, quantizer=SaturatingQuantizer(seed=1)
        )
        registry = get_registry()
        before = registry.snapshot()
        consume_fallbacks()
        device.run(3e-6 * np.sin(np.linspace(0.0, 10.0, 128)))
        # The kernel's refusal is the only one on the ladder: auto
        # names it once, in the notes and in the fallback counter.
        assert consume_fallbacks() == [
            "SIModulator2: " + subclass_refusal("quantizer", "SaturatingQuantizer")
        ]
        delta = snapshot_delta(before, registry.snapshot())
        (series,) = delta["instruments"]["repro.single.fallbacks"]["series"]
        assert series["labels"] == {"device": "SIModulator2"}
        assert series["value"] == 1.0
