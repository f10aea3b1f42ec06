"""Unit tests for the compiled kernel tier and the engine selector.

The byte-equality contract itself is exercised exhaustively by
``tests/properties/test_kernel_parity.py``; this module covers the
machinery around it -- lowering refusals, compile caching, the
state-space analysis view, stream draining, JIT gating, and the
``use_engine`` ladder in ``run_single``.
"""

from dataclasses import replace

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
from repro.devices.current_mirror import CurrentMirror
from repro.observability.instruments import InstrumentRegistry, use_registry
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
from repro.runtime.kernels import runner
from repro.runtime.lowering import subclass_refusal
from repro.si.cascade import BiquadCascade
from repro.si.delay_line import DelayLine
from repro.si.errors_model import ChargeInjectionResidue
from repro.si.memory_cell import ClassABMemoryCell
from repro.telemetry.probes import SignalProbe

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

    def test_specs_differing_in_a_zero_sign_compile_separately(self):
        # -0.0 == 0.0, so the two specs are equal, but a -0.0 CMFF bias
        # keeps the biases the +0.0 spec folds away.
        plain = SIModulator2(cell_config=MOD_CONFIG)
        signed = SIModulator2(cell_config=MOD_CONFIG)
        signed._int2.cmff.subtract_pos = CurrentMirror(output_conductance=-0.0)
        assert build_spec(plain) == build_spec(signed)
        first = compile_spec(build_spec(plain))
        second = compile_spec(build_spec(signed))
        assert second is not first
        assert "(i_cm + -0.0)" in second.source and "+ -0.0" not in first.source


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


def _loop(program):
    """The generated kernel's source, without the prologue before it."""
    return program.source[program.source.index("def kernel(") :]


class TestScalarPrologue:
    """Input-only work runs once per run, in NumPy, before the loop."""

    @pytest.mark.parametrize(
        ("factory", "rows"),
        [
            (lambda: SIModulator1(cell_config=MOD_CONFIG), ("xs",)),
            (lambda: SIModulator2(cell_config=MOD_CONFIG), ("xa", "xb")),
            (lambda: ChopperStabilizedSIModulator(cell_config=MOD_CONFIG), ("xa", "xb")),
        ],
    )
    def test_a_loop_reads_its_input_split_per_decision(self, factory, rows):
        program = compile_spec(build_spec(factory()))
        assert program.stimulus == rows
        loop = _loop(program)
        assert not [row for row in rows if f"{row}[i]" in loop]
        # One row per quantiser decision; the branch's arm loads its own.
        assert "_up[i]" in loop and "_down[i]" in loop

    @pytest.mark.parametrize(
        ("factory", "stored_in_loop"),
        [
            (lambda: ClassABMemoryCell(delay_line_cell_config()), 0),
            (lambda: DelayLine(delay_line_cell_config()), 2),
        ],
    )
    def test_an_input_fed_store_takes_its_front_from_the_prologue(
        self, factory, stored_in_loop
    ):
        program = compile_spec(build_spec(factory()))
        loop = _loop(program)
        assert "value = value0_pos[i]" in loop and "decay0_neg[i]" in loop
        # Only the halves fed by the loop's own state split in the loop.
        assert loop.count("root = sqrt(") == stored_in_loop

    def test_a_probe_of_the_input_is_filled_by_the_prologue(self):
        device = ClassABMemoryCell(delay_line_cell_config())
        device._probe = SignalProbe("cell")
        program = compile_spec(build_spec(device))
        assert "pb0" not in program.arg_names
        rows = program.prologue(xa=np.array([1e-6]), xb=np.array([-1e-6]))
        assert rows["pb0"].tolist() == [2e-6]

    def test_an_empty_loop_run_keeps_the_last_decision(self):
        device = SIModulator2(cell_config=MOD_CONFIG)
        device.quantizer._last_decision = -1
        run_kernel(device, np.empty(0))
        assert device.quantizer._last_decision == -1

    def test_the_jit_compiles_the_loop_alone(self, monkeypatch):
        # The prologue stays plain NumPy: only the loop is handed over.
        program = compile_spec(build_spec(DelayLine(delay_line_cell_config())))
        monkeypatch.setattr(program, "jit_state", "untried")
        monkeypatch.setattr(program, "jit_fn", program.jit_fn)
        handed = []
        monkeypatch.setattr(runner, "jit_compile", lambda fn: handed.append(fn))
        runner._ensure_jit(program)
        assert handed == [program.fn] and program.fn.__name__ == "kernel"


class TestGenerationTimeFolds:
    def test_mod2_period_carries_only_state_dependent_work(self):
        loop = _loop(compile_spec(build_spec(SIModulator2(cell_config=MOD_CONFIG))))
        # The CMFF sense biases fold; the subtract's +0.0 stays.
        assert "i_cm = (0.5 * t0_pos) + (0.5 * t0_neg)" in loop
        assert loop.count("+ 0.0") == 2
        # exp(margin / -tau) in the small step; n_tau only when slewing.
        assert loop.count("exp(margin / -0.05)") == 4
        assert "exp(-n_tau)" not in loop
        # A positive injection residual drops the delta == 0.0 shortcut.
        assert "delta == 0.0" not in loop
        # One branch holds the decision, the feedback and the output;
        # ``last`` is written once, after the loop.
        assert loop.count("if eff >= 0.0:") == 1 and "decision == 1" not in loop
        assert loop.count("last = decision") == 1
        assert loop.count("if slewed:") == 2 and "slp" not in loop

    def test_a_negative_zero_subtract_bias_keeps_the_sense_biases(self):
        device = SIModulator2(cell_config=MOD_CONFIG)
        device._int2.cmff.subtract_pos = CurrentMirror(output_conductance=-0.0)
        loop = _loop(compile_spec(build_spec(device)))
        assert "i_cm = (0.5 * t0_pos) + (0.5 * t0_neg)" in loop
        assert "i_cm = ((0.5 * t1_pos) + 0.0) + ((0.5 * t1_neg) + 0.0)" in loop

    def test_a_negative_zero_injection_residual_keeps_the_shortcut(self):
        config = replace(
            delay_line_cell_config(),
            injection=ChargeInjectionResidue(full_injection_current=-0.0),
        )
        spec = build_spec(DelayLine(config))
        assert not spec.stages[0].cell.front_never_negative_zero
        assert _loop(compile_spec(spec)).count("if delta == 0.0:") == 4

    def test_hysteresis_reads_last_every_period(self):
        device = SIModulator2(
            cell_config=MOD_CONFIG, quantizer=CurrentQuantizer(hysteresis=2e-9)
        )
        loop = _loop(compile_spec(build_spec(device)))
        assert loop.count("last = decision") == 1
        assert loop.index("last = decision") < loop.index("return ")
        assert "    last = decision" in loop.split("for i in range(n_steps):")[1]


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
        registry = InstrumentRegistry()
        device = SIModulator2(cell_config=MOD_CONFIG)
        with use_registry(registry):
            record_engine_run("kernel", device)
            record_engine_run("batch", device, count=5)
        series = registry.snapshot()["instruments"]["repro.engine.runs"]["series"]
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
        registry = InstrumentRegistry()
        consume_fallbacks()
        with use_registry(registry):
            device.run(3e-6 * np.sin(np.linspace(0.0, 10.0, 128)))
        # The kernel's refusal is the only one on the ladder: auto
        # names it once, in the notes and in the fallback counter.
        assert consume_fallbacks() == [
            "SIModulator2: " + subclass_refusal("quantizer", "SaturatingQuantizer")
        ]
        (series,) = registry.snapshot()["instruments"]["repro.single.fallbacks"]["series"]
        assert series["labels"] == {"device": "SIModulator2"}
        assert series["value"] == 1.0
