"""Per-spec source generation for the compiled kernel tier.

Each :class:`~repro.runtime.kernels.spec.KernelSpec` is compiled into
one flat Python function whose body is the scalar device loop with
every abstraction *folded at generation time*: cell constants, loop
coefficients and mirror gains become ``repr`` float literals, stages
unroll, and identity operations are elided where IEEE-754 proves them
bitwise-invisible.  The folding rules, each load-bearing for the
byte-equality contract:

* ``x * 1.0`` is the bitwise identity for every float (including
  ``-0.0``, ``inf``, NaN payload) -- unit gains and coefficients are
  elided;
* ``a - 0.0`` is the identity for every ``a`` (even ``-0.0``), so a
  zero quantiser threshold folds away;
* ``a + 0.0`` is **not** the identity (``-0.0 + 0.0 == +0.0``), so the
  half-splitting ``0.0 + half`` / ``0.0 - half`` normalisations and the
  CMFF bias terms are always kept;
* constants combined *at generation time* with the same operations the
  scalar loop performs at run time (``1.0 + 0.5 * mismatch``,
  ``fb_pos * b2``) produce the identical 64-bit value, so feedback
  branch constants fold when the DAC is noiseless;
* ``exp`` stays ``np.exp`` on scalars (``math.exp`` differs bitwise on
  this pipeline's argument range); ``sqrt`` is correctly rounded
  everywhere and may come from ``math``.

The generated source is shared verbatim between the pure-Python mode
(lists in, preallocated list out) and the optional numba JIT mode
(arrays in, preallocated array out) -- see
:mod:`repro.runtime.kernels.jit` for the bit-exactness probe that
gates the latter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.runtime.kernels.spec import (
    CellSpec,
    CmffSpec,
    KernelSpec,
    LoopSpec,
    StageSpec,
)

__all__ = ["KernelProgram", "compile_spec", "kernel_source"]


def _lit(value: float) -> str:
    """Return the exact round-trip literal for a float constant."""
    return repr(float(value))


class _Source:
    """Indented line accumulator for the generated function body."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def line(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _scaled(expr: str, coefficient: float) -> str:
    """Return ``expr * coefficient`` with the exact-identity fold."""
    if coefficient == 1.0:
        return expr
    return f"{expr} * {_lit(coefficient)}"


def _prescaled(coefficient: float, expr: str) -> str:
    """Return ``coefficient * expr`` with the exact-identity fold."""
    if coefficient == 1.0:
        return expr
    return f"{_lit(coefficient)} * {expr}"


def _emit_store(
    src: _Source,
    depth: int,
    cell: CellSpec,
    prev: str,
    target: str,
    out_value: str,
    out_slew: str,
) -> None:
    """Emit the fused ``_store_half`` body with the cell's literals.

    Transliteration of
    :meth:`repro.si.memory_cell.ClassABMemoryCell._store_half` with its
    helpers (class-AB split, transmission error, charge injection, GGA
    settling) inlined operation for operation and every configuration
    constant inlined as a literal.
    """
    iq = _lit(cell.iq_squared)
    bias = _lit(cell.bias)
    src.line(depth, f"half = 0.5 * {target}")
    src.line(depth, f"root = sqrt(half * half + {iq})")
    src.line(depth, "if half >= 0.0:")
    src.line(depth + 1, "device_n = half + root")
    src.line(depth, "else:")
    src.line(depth + 1, f"device_n = {iq} / (root - half)")
    t_floor = _lit(cell.trans_floor)
    src.line(depth, f"current = device_n if device_n >= {t_floor} else {t_floor}")
    src.line(
        depth,
        f"value = {target} * (1.0 - {_lit(cell.trans_ratio)}"
        f" * sqrt({_lit(cell.trans_iq)} / current))",
    )
    if cell.inj_floor != cell.trans_floor:
        # Different clamp floors: recompute exactly as the scalar does.
        j_floor = _lit(cell.inj_floor)
        src.line(
            depth, f"current = device_n if device_n >= {j_floor} else {j_floor}"
        )
    src.line(
        depth,
        f"value = value + {_lit(cell.inj_residual)}"
        f" * sqrt(current / {_lit(cell.inj_iq)})",
    )
    src.line(depth, f"delta = value - {prev} + {_lit(cell.kick)} * value")
    src.line(depth, "if delta == 0.0:")
    src.line(depth + 1, f"{out_value} = value")
    src.line(depth + 1, f"{out_slew} = False")
    src.line(depth, "else:")
    src.line(depth + 1, f"margin = 1.0 - abs(value) / {bias}")
    floor = _lit(cell.margin_floor)
    src.line(depth + 1, f"if margin < {floor}:")
    src.line(depth + 2, f"margin = {floor}")
    src.line(depth + 1, f"n_tau = margin / {_lit(cell.tau_fraction)}")
    src.line(depth + 1, "magnitude = abs(delta)")
    src.line(depth + 1, f"if magnitude <= {bias}:")
    src.line(depth + 2, f"{out_value} = value - delta * float(exp(-n_tau))")
    src.line(depth + 2, f"{out_slew} = False")
    src.line(depth + 1, "else:")
    src.line(depth + 2, "sign = 1.0 if delta > 0.0 else -1.0")
    src.line(depth + 2, f"slew_tau = (magnitude - {bias}) / {bias}")
    src.line(depth + 2, "if slew_tau >= n_tau:")
    src.line(depth + 3, f"residual = sign * (magnitude - {bias} * n_tau)")
    src.line(depth + 2, "else:")
    src.line(
        depth + 3,
        f"residual = sign * {bias} * float(exp(-(n_tau - slew_tau)))",
    )
    src.line(depth + 2, f"{out_value} = value - residual")
    src.line(depth + 2, f"{out_slew} = True")


def _emit_cmff(src: _Source, depth: int, cmff: CmffSpec) -> None:
    """Emit the CMFF apply on ``t_pos``/``t_neg`` (biases always kept)."""

    def sense(gain: float, bias: float, var: str) -> str:
        return f"({_prescaled(gain, var)} + {_lit(bias)})"

    src.line(
        depth,
        "i_cm = "
        + sense(cmff.sense_pos_gain, cmff.sense_pos_bias, "t_pos")
        + " + "
        + sense(cmff.sense_neg_gain, cmff.sense_neg_bias, "t_neg"),
    )
    subtract_pos = sense(cmff.subtract_pos_gain, cmff.subtract_pos_bias, "i_cm")
    subtract_neg = sense(cmff.subtract_neg_gain, cmff.subtract_neg_bias, "i_cm")
    src.line(depth, f"t_pos = t_pos - {subtract_pos}")
    src.line(depth, f"t_neg = t_neg - {subtract_neg}")


@dataclass
class _Layout:
    """Argument and probe-slot bookkeeping shared with the runner."""

    arg_names: list[str] = field(default_factory=list)
    probe_slots: list[tuple[int, str]] = field(default_factory=list)
    state_names: list[str] = field(default_factory=list)
    slew_names: list[str] = field(default_factory=list)

    def probe_arg(self, stage_index: int, tag: str) -> str:
        self.probe_slots.append((stage_index, tag))
        name = f"pb{len(self.probe_slots) - 1}"
        self.arg_names.append(name)
        return name


def _emit_stage(
    src: _Source,
    depth: int,
    stage: StageSpec,
    index: int,
    u_pos: str,
    u_neg: str,
    probe_args: dict[tuple[int, str], str],
) -> None:
    """Emit one integrator/differentiator step updating ``p{j}``/``m{j}``."""
    j = index
    state_pos, state_neg = (f"m{j}", f"p{j}") if stage.crossed else (
        f"p{j}",
        f"m{j}",
    )
    src.line(depth, f"t_pos = {state_pos} + {_scaled(u_pos, stage.gain)}")
    src.line(depth, f"t_neg = {state_neg} + {_scaled(u_neg, stage.gain)}")
    if stage.cmff is not None:
        _emit_cmff(src, depth, stage.cmff)
        cmff_arg = probe_args.get((j, "cmff"))
        if cmff_arg is not None:
            src.line(depth, f"{cmff_arg}[i] = 0.5 * (t_pos + t_neg)")
    cell_arg = probe_args.get((j, "cell"))
    if cell_arg is not None:
        src.line(depth, f"{cell_arg}[i] = t_pos - t_neg")
    _emit_store(src, depth, stage.cell, f"p{j}", "t_pos", "sp", "slp")
    _emit_store(src, depth, stage.cell, f"m{j}", "t_neg", "sm", "slm")
    if stage.cell.mismatch != 0.0:
        src.line(depth, f"sp = sp * {_lit(1.0 + 0.5 * stage.cell.mismatch)}")
        src.line(depth, f"sm = sm * {_lit(1.0 - 0.5 * stage.cell.mismatch)}")
    src.line(depth, f"p{j} = sp + hn{j}[i]")
    src.line(depth, f"m{j} = sm - hn{j}[i]")
    src.line(depth, "if slp or slm:")
    src.line(depth + 1, f"slews{j} = slews{j} + 1")


def _emit_decision(
    src: _Source, depth: int, loop: LoopSpec, base: str
) -> None:
    """Emit the quantiser decision for the differential value ``base``."""
    if loop.dither_rms > 0.0:
        dithered = f"(({base}) + dith[i])"
    else:
        dithered = f"({base})"
    if loop.offset == 0.0 and loop.hysteresis == 0.0:
        # threshold == +0.0 and `a - 0.0` is the IEEE identity.
        src.line(depth, f"eff = {dithered if loop.dither_rms > 0.0 else base}")
    else:
        threshold = (
            f"({_lit(loop.offset)} - {_lit(loop.hysteresis)} * last)"
        )
        src.line(depth, f"eff = {dithered} - {threshold}")
    if loop.band > 0.0:
        src.line(depth, f"if abs(eff) < {_lit(loop.band)}:")
        src.line(depth + 1, "decision = 1 if meta[i] < 0.5 else -1")
        src.line(depth, "else:")
        src.line(depth + 1, "decision = 1 if eff >= 0.0 else -1")
    else:
        src.line(depth, "decision = 1 if eff >= 0.0 else -1")
    src.line(depth, "last = decision")


def _emit_feedback_halves(
    src: _Source, depth: int, loop: LoopSpec, b2: float
) -> None:
    """Emit ``fb_pos``/``fb_neg`` (and folded ``fb2_*`` = ``fb_* * b2``).

    With a noiseless DAC the feedback is two-valued per decision, so
    every derived quantity folds to a literal computed here with the
    exact run-time expressions.
    """
    if loop.dac_rms == 0.0:
        src.line(depth, "if decision == 1:")
        for index, level in enumerate((loop.level_pos, loop.level_neg)):
            if index == 1:
                src.line(depth, "else:")
            fb_half = 0.5 * level
            fb_pos = 0.0 + fb_half
            fb_neg = 0.0 - fb_half
            src.line(depth + 1, f"fb_pos = {_lit(fb_pos)}")
            src.line(depth + 1, f"fb_neg = {_lit(fb_neg)}")
            src.line(depth + 1, f"fb2_pos = {_lit(fb_pos * b2)}")
            src.line(depth + 1, f"fb2_neg = {_lit(fb_neg * b2)}")
    else:
        src.line(
            depth,
            f"feedback = ({_lit(loop.level_pos)} if decision == 1"
            f" else {_lit(loop.level_neg)}) + dacn[i]",
        )
        src.line(depth, "fb_half = 0.5 * feedback")
        src.line(depth, "fb_pos = 0.0 + fb_half")
        src.line(depth, "fb_neg = 0.0 - fb_half")
        src.line(depth, f"fb2_pos = {_scaled('fb_pos', b2)}")
        src.line(depth, f"fb2_neg = {_scaled('fb_neg', b2)}")


def _loop_stream_args(layout: _Layout, loop: LoopSpec) -> None:
    if loop.band > 0.0:
        layout.arg_names.append("meta")
    if loop.dither_rms > 0.0:
        layout.arg_names.append("dith")
    if loop.dac_rms > 0.0:
        layout.arg_names.append("dacn")


def _probe_args(
    layout: _Layout, stages: tuple[StageSpec, ...]
) -> dict[tuple[int, str], str]:
    """Allocate probe buffer arguments in canonical (cell, cmff) order."""
    args: dict[tuple[int, str], str] = {}
    for index, stage in enumerate(stages):
        if stage.cell.probed:
            args[(index, "cell")] = layout.probe_arg(index, "cell")
        if stage.cmff is not None and stage.cmff.probed:
            args[(index, "cmff")] = layout.probe_arg(index, "cmff")
    return args


def _state_args(layout: _Layout, n_cells: int, with_last: bool) -> None:
    for j in range(n_cells):
        layout.state_names.extend((f"p{j}", f"m{j}"))
    if with_last:
        layout.state_names.append("last")
    layout.slew_names = [f"slews{j}" for j in range(n_cells)]
    layout.arg_names.extend(layout.state_names)


def kernel_source(spec: KernelSpec) -> tuple[str, _Layout]:
    """Generate the kernel function source and its argument layout."""
    stages = spec.all_stages
    n_cells = len(stages)
    layout = _Layout()
    src = _Source()
    layout.arg_names.append("n_steps")
    if spec.kind in ("cell", "delay", "mod2", "chopper"):
        layout.arg_names.extend(("xa", "xb"))
    else:
        layout.arg_names.append("xs")
    layout.arg_names.append("out")
    layout.arg_names.extend(f"hn{j}" for j in range(n_cells))
    if spec.loop is not None:
        _loop_stream_args(layout, spec.loop)
    probe_args = _probe_args(layout, stages)
    _state_args(layout, n_cells, with_last=spec.loop is not None)

    src.line(0, f"def kernel({', '.join(layout.arg_names)}):")
    for j in range(n_cells):
        src.line(1, f"slews{j} = 0")
    src.line(1, "for i in range(n_steps):")
    d = 2

    if spec.kind == "cell":
        stage = stages[0]
        cell_arg = probe_args.get((0, "cell"))
        if cell_arg is not None:
            src.line(d, f"{cell_arg}[i] = xa[i] - xb[i]")
        _emit_store(src, d, stage.cell, "p0", "xa[i]", "sp", "slp")
        _emit_store(src, d, stage.cell, "m0", "xb[i]", "sm", "slm")
        if stage.cell.mismatch != 0.0:
            src.line(d, f"sp = sp * {_lit(1.0 + 0.5 * stage.cell.mismatch)}")
            src.line(d, f"sm = sm * {_lit(1.0 - 0.5 * stage.cell.mismatch)}")
        if stage.cell.inverting:
            src.line(d, "out[i] = (-p0) - (-m0)")
        else:
            src.line(d, "out[i] = p0 - m0")
        src.line(d, "p0 = sp + hn0[i]")
        src.line(d, "m0 = sm - hn0[i]")
        src.line(d, "if slp or slm:")
        src.line(d + 1, "slews0 = slews0 + 1")
    elif spec.kind == "delay":
        src.line(d, "v_pos = xa[i]")
        src.line(d, "v_neg = xb[i]")
        for j, stage in enumerate(stages):
            cell_arg = probe_args.get((j, "cell"))
            if cell_arg is not None:
                src.line(d, f"{cell_arg}[i] = v_pos - v_neg")
            src.line(d, f"hp = p{j}")
            src.line(d, f"hm = m{j}")
            _emit_store(src, d, stage.cell, "hp", "v_pos", "sp", "slp")
            _emit_store(src, d, stage.cell, "hm", "v_neg", "sm", "slm")
            if stage.cell.mismatch != 0.0:
                src.line(
                    d, f"sp = sp * {_lit(1.0 + 0.5 * stage.cell.mismatch)}"
                )
                src.line(
                    d, f"sm = sm * {_lit(1.0 - 0.5 * stage.cell.mismatch)}"
                )
            src.line(d, f"p{j} = sp + hn{j}[i]")
            src.line(d, f"m{j} = sm - hn{j}[i]")
            src.line(d, "if slp or slm:")
            src.line(d + 1, f"slews{j} = slews{j} + 1")
            if stage.cell.inverting:
                src.line(d, "v_pos = -hp")
                src.line(d, "v_neg = -hm")
            else:
                src.line(d, "v_pos = hp")
                src.line(d, "v_neg = hm")
        src.line(d, "out[i] = v_pos - v_neg")
    elif spec.kind == "cascade":
        src.line(d, "signal = xs[i]")
        for s, section in enumerate(spec.sections):
            j1, j2 = 2 * s, 2 * s + 1
            src.line(d, f"w1 = p{j1} - m{j1}")
            src.line(d, f"w2 = p{j2} - m{j2}")
            inner = f"(signal - {_prescaled(section.q, 'w1')} - w2)"
            src.line(d, f"u1 = {_prescaled(section.k1, inner)}")
            src.line(d, f"u2 = {_prescaled(section.k2, 'w1')}")
            src.line(d, "u1h = 0.5 * u1")
            src.line(d, "u1p = 0.0 + u1h")
            src.line(d, "u1m = 0.0 - u1h")
            _emit_stage(src, d, section.first, j1, "u1p", "u1m", probe_args)
            src.line(d, "u2h = 0.5 * u2")
            src.line(d, "u2p = 0.0 + u2h")
            src.line(d, "u2m = 0.0 - u2h")
            _emit_stage(src, d, section.second, j2, "u2p", "u2m", probe_args)
            src.line(d, "signal = w1")
        src.line(d, "out[i] = signal")
    elif spec.kind == "mod1":
        loop = spec.loop
        assert loop is not None
        _emit_decision(src, d, loop, "p0 - m0")
        if loop.dac_rms == 0.0:
            src.line(
                d,
                f"feedback = {_lit(loop.level_pos)} if decision == 1"
                f" else {_lit(loop.level_neg)}",
            )
        else:
            src.line(
                d,
                f"feedback = ({_lit(loop.level_pos)} if decision == 1"
                f" else {_lit(loop.level_neg)}) + dacn[i]",
            )
        src.line(
            d, f"u_half = 0.5 * ({_prescaled(spec.a1, '(xs[i] - feedback)')})"
        )
        src.line(d, "u_pos = 0.0 + u_half")
        src.line(d, "u_neg = 0.0 - u_half")
        _emit_stage(src, d, stages[0], 0, "u_pos", "u_neg", probe_args)
        src.line(d, f"out[i] = decision * {_lit(loop.full_scale)}")
    elif spec.kind in ("mod2", "chopper"):
        loop = spec.loop
        assert loop is not None
        _emit_decision(src, d, loop, "p1 - m1")
        _emit_feedback_halves(src, d, loop, spec.b2)
        if spec.kind == "mod2":
            src.line(d, f"u1_pos = {_scaled('(xa[i] - fb_pos)', spec.a1)}")
            src.line(d, f"u1_neg = {_scaled('(xb[i] - fb_neg)', spec.a1)}")
            src.line(d, f"u2_pos = {_scaled('p0', spec.a2)} - fb2_pos")
            src.line(d, f"u2_neg = {_scaled('m0', spec.a2)} - fb2_neg")
        else:
            neg_a1 = -spec.a1
            src.line(d, f"u1_pos = {_scaled('(xa[i] - fb_pos)', neg_a1)}")
            src.line(d, f"u1_neg = {_scaled('(xb[i] - fb_neg)', neg_a1)}")
            src.line(d, f"u2_pos = fb2_pos - {_scaled('p0', spec.a2)}")
            src.line(d, f"u2_neg = fb2_neg - {_scaled('m0', spec.a2)}")
        _emit_stage(src, d, stages[0], 0, "u1_pos", "u1_neg", probe_args)
        _emit_stage(src, d, stages[1], 1, "u2_pos", "u2_neg", probe_args)
        src.line(d, f"out[i] = decision * {_lit(loop.full_scale)}")
    else:  # pragma: no cover - build_spec never produces other kinds
        raise ValueError(f"unknown kernel kind {spec.kind!r}")

    returns = layout.state_names + layout.slew_names
    src.line(1, f"return {', '.join(returns)}")
    return src.text(), layout


@dataclass
class KernelProgram:
    """One compiled kernel: source, callables, and argument layout."""

    spec: KernelSpec
    source: str
    fn: Callable[..., Any]
    arg_names: tuple[str, ...]
    probe_slots: tuple[tuple[int, str], ...]
    state_names: tuple[str, ...]
    slew_names: tuple[str, ...]
    #: numba-compiled callable, populated lazily by the runner.
    jit_fn: Callable[..., Any] | None = None
    #: "untried", "active", or the named refusal reason.
    jit_state: str = "untried"


_CACHE: dict[KernelSpec, KernelProgram] = {}


def compile_spec(spec: KernelSpec) -> KernelProgram:
    """Return the (cached) compiled program for ``spec``."""
    program = _CACHE.get(spec)
    if program is not None:
        return program
    source, layout = kernel_source(spec)
    namespace: dict[str, Any] = {"sqrt": math.sqrt, "exp": np.exp}
    exec(  # noqa: S102 - the source is generated from frozen spec literals
        compile(source, f"<repro-kernel:{spec.kind}>", "exec"), namespace
    )
    program = KernelProgram(
        spec=spec,
        source=source,
        fn=namespace["kernel"],
        arg_names=tuple(layout.arg_names),
        probe_slots=tuple(layout.probe_slots),
        state_names=tuple(layout.state_names),
        slew_names=tuple(layout.slew_names),
    )
    _CACHE[spec] = program
    return program
