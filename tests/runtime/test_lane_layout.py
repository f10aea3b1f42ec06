"""The lane layout's per-period cost, its stacked stages, and its lazy compile.

A lane-layout period costs NumPy dispatches, not arithmetic, so each
design's calls per period are pinned as a budget.  The two-stage loops
form both stages' targets with one add and apply CMFF once over the
stacked block (``_stackable`` names when they may); stages whose CMFF
literals differ must still reproduce the scalar oracle byte for byte.
"""

import ast
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from repro.config import MODULATOR_CLOCK, paper_cell_config
from repro.deltasigma import ChopperStabilizedSIModulator, SIModulator2
from repro.designs import resolve
from repro.devices.current_mirror import CurrentMirror
from repro.runtime.batch import BatchUnsupported, batch_runner_for
from repro.runtime.engine import force_scalar
from repro.runtime.kernels import codegen, lanes, run_kernel
from repro.runtime.kernels import store as store_module
from repro.runtime.kernels.codegen import _input, compile_spec, kernel_source
from repro.runtime.kernels.lanes import _fused_cell, _LaneLayout, _stackable
from repro.runtime.kernels.spec import build_spec
from repro.si.delay_line import DelayLine
from repro.si.errors_model import ChargeInjectionResidue

#: NumPy calls per period (lane loop plus the store's no-slew
#: sequence).  A period used 37, 48, 52 and 52 before the stacked CMFF
#: block, the pre-bound store and the gathered DAC select, and one more
#: per CMFF stack before the sense biases folded away.
CALL_BUDGET = {"delay-line": 38, "modulator1": 47, "modulator2": 45, "chopper": 45}


class _CountingNumpy:
    """Stands in for ``numpy``; records every function called through it."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        value = getattr(np, name)
        if not callable(value) or isinstance(value, type):
            return value

        def call(*args, **kwargs):
            self.calls.append((name, kwargs))
            return value(*args, **kwargs)

        return call


def _masked_ufunc(name, keywords):
    return isinstance(getattr(np, name, None), np.ufunc) and "where" in keywords


def _loop_calls(source):
    """Count a lane function's NumPy calls per period; list masked ufuncs.

    The store call (``settle()``) is counted on its own, and a row view
    (``up = ups[i]``) is no call; a subscript assignment copies.  The
    period is the step loop (``for i in range(n_steps)``) inside the
    loop over blocks.
    """
    loop = next(
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.For) and isinstance(node.iter, ast.Call)
    )
    calls, masked = 0, []
    for statement in loop.body:
        value = getattr(statement, "value", None)
        if isinstance(value, ast.Call) and getattr(value.func, "id", "") == "settle":
            continue
        if isinstance(statement, ast.Assign):
            if isinstance(statement.targets[0], ast.Name) and isinstance(value, ast.Subscript):
                continue
            calls += isinstance(statement.targets[0], ast.Subscript)
        for node in ast.walk(statement):
            if isinstance(node, ast.Call):
                calls += 1
                name = getattr(node.func, "id", "")
                if _masked_ufunc(name, {keyword.arg for keyword in node.keywords}):
                    masked.append(name)
            elif isinstance(node, (ast.Compare, ast.BinOp, ast.UnaryOp)):
                calls += 1
    return calls, masked


def _store_calls(cell, shape):
    """Run one no-slew store period through a counting ``numpy``."""
    counting = _CountingNumpy()
    with mock.patch.object(store_module, "np", counting):
        store = store_module.LaneStore(cell, shape)
        store.state[...] = 0.0
        store.target[...] = 0.0
        counting.calls.clear()
        store()
    assert "negative" not in [name for name, _ in counting.calls], "a slewing period"
    return counting.calls


class TestPeriodCallBudget:
    @pytest.mark.parametrize("design", sorted(CALL_BUDGET))
    def test_calls_per_period_within_budget(self, design):
        spec = build_spec(resolve(design).build())
        cell = _fused_cell(spec.all_stages)
        source, _ = kernel_source(spec, _LaneLayout(cell))
        wiring, masked = _loop_calls(source)
        store = _store_calls(cell, (2 * len(spec.all_stages), 5))
        assert wiring + len(store) <= CALL_BUDGET[design]
        # No arithmetic ufunc in a no-slew period takes ``where=``: a
        # select is a plain operation into scratch and one masked copy.
        masked += [name for name, keywords in store if _masked_ufunc(name, keywords)]
        assert masked == []


def _stages(device):
    return [stage for _, stage, _ in device.loop_stages()]


def _unmatched_subtract(device):
    _stages(device)[1].cmff.subtract_neg = CurrentMirror(gain_error=0.01)


def _unmatched_sense(device):
    _stages(device)[0].cmff.sense_pos = CurrentMirror(nominal_gain=0.5, gain_error=-0.02)


def _negative_zero_bias(device):
    # A -0.0 output conductance makes that mirror's bias -0.0: adding it
    # keeps a -0.0 the +0.0 bias of the other stage would normalise.
    _stages(device)[1].cmff.subtract_pos = CurrentMirror(output_conductance=-0.0)


def _second_stage_gain(device):
    _stages(device)[1].gain = 0.875


def _one_stage_without_cmff(device):
    _stages(device)[1].cmff = None


def _no_cmff(device):
    for stage in _stages(device):
        stage.cmff = None


#: Loop variants whose stages' CMFF literals or wiring differ.
VARIANTS = {
    "unmatched-subtract": _unmatched_subtract,
    "unmatched-sense": _unmatched_sense,
    "negative-zero-bias": _negative_zero_bias,
    "second-stage-gain": _second_stage_gain,
    "one-stage-without-cmff": _one_stage_without_cmff,
    "no-cmff": _no_cmff,
}

LOOPS = {"modulator2": SIModulator2, "chopper": ChopperStabilizedSIModulator}


def _build(kind, variant):
    config = paper_cell_config(sample_rate=MODULATOR_CLOCK)
    device = LOOPS[kind](cell_config=config)
    VARIANTS[variant](device)
    return device


def _stimuli(n_lanes, n_steps):
    t = np.arange(n_steps)
    carrier = np.sin(2.0 * np.pi * 7.0 * t / n_steps)
    return 4e-6 * np.linspace(1.0, 0.1, n_lanes)[:, None] * carrier[None, :]


class TestStackedStages:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("kind", sorted(LOOPS))
    def test_variant_matches_scalar_oracle(self, kind, variant):
        stimuli = _stimuli(5, 300)
        got = batch_runner_for(_build(kind, variant), 5, 300).run(stimuli)
        reference = _build(kind, variant)
        want = np.empty_like(stimuli)
        with force_scalar():
            for lane, row in enumerate(stimuli):
                reference.reset()
                want[lane] = reference.run(row)
        assert got.tobytes() == want.tobytes()

    def test_distinct_literals_take_the_stacked_path(self):
        # Per-stage literals ride in per-row constant blocks: the
        # stages' targets are still formed by one add, CMFF runs once,
        # and the unequal subtract mirrors select the per-half form.
        spec = build_spec(_build("modulator2", "unmatched-subtract"))
        source, _ = kernel_source(spec, _LaneLayout(_fused_cell(spec.all_stages)))
        assert source.count("add(S0_2, U0_2, T0_2)") == 1
        assert len(re.findall(r", i_cm0_2\)$", source, re.MULTILINE)) == 1
        assert "i_sub" not in source

    @pytest.mark.parametrize(
        ("variant", "stacked"),
        [
            ("unmatched-subtract", True),
            ("second-stage-gain", True),
            ("no-cmff", True),
            ("one-stage-without-cmff", False),
        ],
    )
    def test_stackable_names_when_stages_share_one_block(self, variant, stacked):
        stages = build_spec(_build("chopper", variant)).stages
        members = tuple((j, stage, _input(j, f"u{j + 1}")) for j, stage in enumerate(stages))
        assert _stackable(members) is stacked

    def test_stages_that_do_not_stack_stay_one_per_stage(self):
        stages = build_spec(_build("modulator2", "unmatched-subtract")).stages
        wrong_input = ((0, stages[0], _input(0, "u1")), (1, stages[1], _input(0, "u2")))
        crossed = ((0, stages[0], _input(0, "u1")), (1, replace(stages[1], crossed=True), _input(1, "u2")))
        assert not _stackable(wrong_input)
        assert not _stackable(crossed)


class TestLaneRefusal:
    def test_a_negative_zero_injection_residual_refuses_the_lane_store(self):
        # The lane store has no delta == 0.0 shortcut, so a -0.0 value
        # would settle to +0.0 where the scalar store keeps -0.0.
        config = replace(
            paper_cell_config(),
            injection=ChargeInjectionResidue(full_injection_current=-0.0),
            thermal_noise_rms=0.0,
        )
        with pytest.raises(BatchUnsupported, match="injection residual"):
            batch_runner_for(DelayLine(config), 2, 64)
        # The kernel rung, which a sweep falls back to, keeps the signs.
        data = np.zeros(64)
        got = run_kernel(DelayLine(config), data)
        with force_scalar():
            want = DelayLine(config).run(data)
        assert got.tobytes() == want.tobytes()
        assert np.signbit(want).any()


    def test_cells_differing_in_a_zero_sign_do_not_fuse(self):
        # -0.0 == 0.0, but the two residuals store a -0.0 differently.
        device = SIModulator2(cell_config=paper_cell_config(sample_rate=MODULATOR_CLOCK))
        for stage, full in zip(_stages(device), (0.0, -0.0)):
            stage._cell.config = replace(
                stage._cell.config,
                injection=ChargeInjectionResidue(full_injection_current=full),
            )
        stages = build_spec(device).stages
        assert stages[0].cell == stages[1].cell
        assert _fused_cell(stages) is None
        with pytest.raises(BatchUnsupported, match="one electrical configuration"):
            batch_runner_for(device, 2, 64)


class TestLazyLaneCompile:
    def _fresh_device(self, gain):
        # A stage gain no other test uses gives a spec the compile
        # cache has not seen.
        device = SIModulator2(cell_config=paper_cell_config(sample_rate=MODULATOR_CLOCK))
        _stages(device)[1].gain = gain
        return device

    def test_single_run_leaves_the_lane_layout_unbuilt(self):
        device = self._fresh_device(0.8125)
        assert build_spec(device) not in codegen._CACHE
        run_kernel(device, _stimuli(1, 64)[0])
        assert compile_spec(build_spec(device)).lane_fn is None

    def test_two_batch_runners_build_it_once(self):
        device = self._fresh_device(0.78125)
        define = mock.Mock(wraps=codegen._define)
        with mock.patch.object(codegen, "_define", define), mock.patch.object(
            lanes, "_define", define
        ):
            first = batch_runner_for(device, 2, 32)
            second = batch_runner_for(device, 3, 16)
        assert [call.args[1] for call in define.call_args_list] == ["kernel", "lanes"]
        program = compile_spec(build_spec(device))
        assert program.lane_fn is not None
        assert first._program is second._program is program
