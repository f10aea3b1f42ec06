"""Per-spec source generation for both lowered engines.

One wiring walk (:func:`kernel_source`) compiles each
:class:`~repro.runtime.kernels.spec.KernelSpec` into two flat Python
functions, one per data layout, whose bodies are the device loop with
every abstraction *folded at generation time*: cell constants, loop
coefficients and mirror gains become ``repr`` float literals, stages
unroll, and identity operations are elided where IEEE-754 proves them
bitwise-invisible.

* The **scalar layout** (``kernel``) runs one device: one float per
  variable, ``if`` branches, and each half-circuit store inlined.
* The **lane layout** (``lanes``) runs many lanes at once: each
  variable is a NumPy row over the lanes, the quantiser decision is a
  boolean row ``up``, the DAC feedback select is *one* ``where`` over
  literal columns, and the stages only write their store targets.  The
  period ends with *one* fused
  :func:`~repro.runtime.kernels.store.store_batch` call over every
  half of every stage (one call per half would multiply the NumPy
  dispatches), so the lane layout exists only for specs whose cells
  share one electrical configuration.  A loop's bit stream is written
  once after the last period from the recorded ``up`` rows.

Both layouts emit the same arithmetic in the same order, so every
intermediate rounds identically; the lane layout only omits the
per-period ``decision`` (kept when hysteresis reads it back as
``last``) and the per-period output of a loop.  The folding rules,
each load-bearing for the byte-equality contract:

* ``x * 1.0`` is the bitwise identity for every float (including
  ``-0.0``, ``inf``, NaN payload) -- unit gains and coefficients are
  elided;
* ``a - 0.0`` is the identity for every ``a`` (even ``-0.0``), so a
  zero quantiser threshold folds away;
* without hysteresis the threshold ``offset - 0.0 * last`` is
  ``offset - (+/-0.0)``, exactly ``offset`` for a nonzero offset, so it
  folds to the literal and nothing reads ``last``;
* ``a + 0.0`` is **not** the identity (``-0.0 + 0.0 == +0.0``), so the
  half-splitting ``0.0 + half`` / ``0.0 - half`` normalisations and the
  CMFF bias terms are always kept;
* two CMFF subtract mirrors with equal literal gain and bias compute
  the same value, so it is computed once (``i_sub``) for both halves;
* constants combined *at generation time* with the same operations the
  scalar loop performs at run time (``1.0 + 0.5 * mismatch``,
  ``fb_pos * b2``) produce the identical 64-bit value, so feedback
  branch constants fold when the DAC is noiseless;
* ``exp`` stays ``np.exp`` on scalars (``math.exp`` differs bitwise on
  this pipeline's argument range); ``sqrt`` is correctly rounded
  everywhere and may come from ``math``.

The scalar source is shared verbatim between the pure-Python mode
(lists in, preallocated list out) and the optional numba JIT mode
(arrays in, preallocated array out) -- see
:mod:`repro.runtime.kernels.jit` for the bit-exactness probe that
gates the latter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

from repro.runtime.kernels.spec import (
    CellSpec,
    CmffSpec,
    KernelSpec,
    LoopSpec,
    StageSpec,
)
from repro.runtime.kernels.store import store_batch

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
    if subtract_pos == subtract_neg:
        # Same literals (the sign of a zero bias included), same value.
        src.line(depth, f"i_sub = {subtract_pos}")
        subtract_pos = subtract_neg = "i_sub"
    src.line(depth, f"t_pos = t_pos - {subtract_pos}")
    src.line(depth, f"t_neg = t_neg - {subtract_neg}")


class _Layout:
    """The scalar layout, and the argument bookkeeping of both layouts.

    Every generated variable holds one float and every branch is an
    ``if``; each stage stores its two halves inline the moment its
    targets are known.  ``arg_names`` and ``probe_slots`` are what the
    runner reads back to call the function and feed its probes.
    """

    def __init__(self) -> None:
        self.arg_names: list[str] = []
        self.probe_slots: list[tuple[int, str]] = []
        self.state_names: list[str] = []
        self.slew_names: list[str] = []

    def probe_arg(self, stage_index: int, tag: str) -> str:
        self.probe_slots.append((stage_index, tag))
        name = f"pb{len(self.probe_slots) - 1}"
        self.arg_names.append(name)
        return name

    def begin(self, src: _Source, spec: KernelSpec) -> None:
        """Open the function: per-cell noise (``0.5 * draw``) and state in."""
        n_cells = len(spec.all_stages)
        self.arg_names.extend(f"hn{j}" for j in range(n_cells))
        for j in range(n_cells):
            self.state_names.extend((f"p{j}", f"m{j}"))
        if spec.loop is not None:
            self.state_names.append("last")
        self.slew_names = [f"slews{j}" for j in range(n_cells)]
        self.arg_names.extend(self.state_names)
        src.line(0, f"def kernel({', '.join(self.arg_names)}):")
        for name in self.slew_names:
            src.line(1, f"{name} = 0")
        src.line(1, "for i in range(n_steps):")

    def end_step(self, src: _Source, depth: int) -> None:
        """Close one period (the scalar layout stored inline)."""

    def end(self, src: _Source, spec: KernelSpec) -> None:
        src.line(1, f"return {', '.join(self.state_names + self.slew_names)}")

    def decide(self, src: _Source, depth: int, loop: LoopSpec) -> None:
        """Emit ``decision`` (+1/-1) from ``eff``; it becomes ``last``."""
        if loop.band > 0.0:
            src.line(depth, f"if abs(eff) < {_lit(loop.band)}:")
            src.line(depth + 1, "decision = 1 if meta[i] < 0.5 else -1")
            src.line(depth, "else:")
            src.line(depth + 1, "decision = 1 if eff >= 0.0 else -1")
        else:
            src.line(depth, "decision = 1 if eff >= 0.0 else -1")
        src.line(depth, "last = decision")

    def bitstream(self, src: _Source, depth: int, loop: LoopSpec) -> None:
        """Emit the period's loop output sample."""
        src.line(depth, f"out[i] = decision * {_lit(loop.full_scale)}")

    def choose(
        self, src: _Source, depth: int, rows: list[tuple[str, float, float]]
    ) -> None:
        """Bind each ``(name, if_up, if_down)`` literal by the decision."""
        src.line(depth, "if decision == 1:")
        for name, up, _ in rows:
            src.line(depth + 1, f"{name} = {_lit(up)}")
        src.line(depth, "else:")
        for name, _, down in rows:
            src.line(depth + 1, f"{name} = {_lit(down)}")

    def store(
        self, src: _Source, depth: int, j: int, cell: CellSpec, t_pos: str, t_neg: str
    ) -> None:
        """Store stage ``j``'s targets: both halves inline, then noise."""
        _emit_store(src, depth, cell, f"p{j}", t_pos, "sp", "slp")
        _emit_store(src, depth, cell, f"m{j}", t_neg, "sm", "slm")
        if cell.mismatch != 0.0:
            src.line(depth, f"sp = sp * {_lit(1.0 + 0.5 * cell.mismatch)}")
            src.line(depth, f"sm = sm * {_lit(1.0 - 0.5 * cell.mismatch)}")
        src.line(depth, f"p{j} = sp + hn{j}[i]")
        src.line(depth, f"m{j} = sm - hn{j}[i]")
        src.line(depth, "if slp or slm:")
        src.line(depth + 1, f"slews{j} = slews{j} + 1")


class _LaneLayout(_Layout):
    """The lane layout: every variable is a row of ``n_lanes`` floats.

    Arrays are step-major, so ``xa[i]`` is period ``i`` of every lane.
    The state lives in one ``(2 * n_cells, n_lanes)`` array ``S`` (rows
    alternate pos/neg per stage); each stage writes its targets into the
    matching rows of ``T``, and the period ends with **one** fused
    :func:`~repro.runtime.kernels.store.store_batch` call over all rows,
    then the mismatch factors and the pre-assembled noise rows (``+h``
    on pos rows, ``-h`` on neg rows: ``a - h == a + (-h)`` bitwise).
    Every lane starts from the reset state: zero charge, last decision
    +1.  Slew events are not counted.

    A loop's decision is the boolean row ``up``.  The feedback select
    is one ``where`` over ``(k, 1)`` literal columns, unpacked into its
    ``k`` names; the columns are collected in :attr:`constants`, which
    the lane function reads as globals, so no array is built per
    period.  ``up`` is recorded in the ``(steps, lanes)`` buffer
    ``ups`` and the bit stream is written once after the loop:
    ``where(ups, fs, -fs)`` is ``decision * fs`` bitwise, as the
    decision is +/-1.
    """

    def __init__(self, cell: CellSpec) -> None:
        super().__init__()
        self.cell = cell
        self.constants: dict[str, np.ndarray] = {}

    def begin(self, src: _Source, spec: KernelSpec) -> None:
        """Open the function: fused noise rows in, reset state inside."""
        n_cells = len(spec.all_stages)
        self.arg_names.append("noise")
        src.line(0, f"def lanes({', '.join(self.arg_names)}):")
        src.line(1, "S = np.zeros(noise.shape[1:])")
        src.line(1, "T = np.empty_like(S)")
        if spec.loop is not None:
            src.line(1, "ups = np.empty(out.shape, dtype=bool)")
            if spec.loop.hysteresis != 0.0:
                src.line(1, "last = 1.0")
        if self.cell.mismatch != 0.0:
            up = _lit(1.0 + 0.5 * self.cell.mismatch)
            down = _lit(1.0 - 0.5 * self.cell.mismatch)
            src.line(1, f"mf = np.array([[{up}], [{down}]] * {n_cells})")
        src.line(1, "for i in range(n_steps):")
        names = ", ".join(f"p{j}, m{j}" for j in range(n_cells))
        src.line(2, f"{names}, = S")

    def end_step(self, src: _Source, depth: int) -> None:
        src.line(depth, "S = store_batch(S, T, cell)")
        if self.cell.mismatch != 0.0:
            src.line(depth, "S = S * mf")
        src.line(depth, "S += noise[i]")

    def end(self, src: _Source, spec: KernelSpec) -> None:
        """Write a loop's bit stream; per-period outputs are already in ``out``."""
        if spec.loop is not None:
            fs = spec.loop.full_scale
            src.line(1, f"out[:] = np.where(ups, {_lit(fs)}, {_lit(-fs)})")

    def decide(self, src: _Source, depth: int, loop: LoopSpec) -> None:
        src.line(depth, "up = eff >= 0.0")
        if loop.band > 0.0:
            src.line(
                depth, f"up = np.where(abs(eff) < {_lit(loop.band)}, meta[i] < 0.5, up)"
            )
        if loop.hysteresis != 0.0:
            src.line(depth, "decision = np.where(up, 1.0, -1.0)")
            src.line(depth, "last = decision")

    def bitstream(self, src: _Source, depth: int, loop: LoopSpec) -> None:
        src.line(depth, "ups[i] = up")

    def choose(
        self, src: _Source, depth: int, rows: list[tuple[str, float, float]]
    ) -> None:
        names, if_up, if_down = zip(*rows)
        index = len(self.constants) // 2
        for key, values in ((f"UP{index}", if_up), (f"DOWN{index}", if_down)):
            column = np.array(values).reshape(-1, 1)
            column.flags.writeable = False
            self.constants[key] = column
        src.line(depth, f"{', '.join(names)}, = np.where(up, UP{index}, DOWN{index})")

    def store(
        self, src: _Source, depth: int, j: int, cell: CellSpec, t_pos: str, t_neg: str
    ) -> None:
        src.line(depth, f"T[{2 * j}] = {t_pos}")
        src.line(depth, f"T[{2 * j + 1}] = {t_neg}")


def _emit_stage(
    src: _Source,
    layout: _Layout,
    depth: int,
    stage: StageSpec,
    index: int,
    u_pos: str,
    u_neg: str,
    probe_args: dict[tuple[int, str], str],
) -> None:
    """Emit one integrator/differentiator step and store its targets."""
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
    layout.store(src, depth, j, stage.cell, "t_pos", "t_neg")


def _emit_decision(
    src: _Source, layout: _Layout, depth: int, loop: LoopSpec, base: str
) -> None:
    """Emit the quantiser decision for the differential value ``base``."""
    if loop.dither_rms > 0.0:
        dithered = f"(({base}) + dith[i])"
    else:
        dithered = f"({base})"
    if loop.hysteresis != 0.0:
        threshold = f"({_lit(loop.offset)} - {_lit(loop.hysteresis)} * last)"
        src.line(depth, f"eff = {dithered} - {threshold}")
    elif loop.offset != 0.0:
        # offset - 0.0 * last == offset - (+/-0.0) == offset exactly.
        src.line(depth, f"eff = {dithered} - {_lit(loop.offset)}")
    else:
        # threshold == +0.0 and `a - 0.0` is the IEEE identity.
        src.line(depth, f"eff = {dithered if loop.dither_rms > 0.0 else base}")
    layout.decide(src, depth, loop)


def _emit_feedback(
    src: _Source, layout: _Layout, depth: int, loop: LoopSpec
) -> None:
    """Emit the DAC output ``feedback`` for the decision."""
    layout.choose(src, depth, [("feedback", loop.level_pos, loop.level_neg)])
    if loop.dac_rms > 0.0:
        src.line(depth, "feedback = feedback + dacn[i]")


def _emit_feedback_halves(
    src: _Source, layout: _Layout, depth: int, loop: LoopSpec, b2: float
) -> None:
    """Emit ``fb_pos``/``fb_neg`` (and folded ``fb2_*`` = ``fb_* * b2``).

    With a noiseless DAC the feedback is two-valued per decision, so
    every derived quantity folds to a literal computed here with the
    exact run-time expressions.
    """
    if loop.dac_rms == 0.0:
        folded = []
        for level in (loop.level_pos, loop.level_neg):
            fb_half = 0.5 * level
            fb_pos = 0.0 + fb_half
            fb_neg = 0.0 - fb_half
            folded.append((fb_pos, fb_neg, fb_pos * b2, fb_neg * b2))
        names = ("fb_pos", "fb_neg", "fb2_pos", "fb2_neg")
        layout.choose(src, depth, list(zip(names, *folded)))
    else:
        _emit_feedback(src, layout, depth, loop)
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


def kernel_source(
    spec: KernelSpec, layout: _Layout | None = None
) -> tuple[str, _Layout]:
    """Generate the kernel source of ``spec`` in ``layout`` (default scalar).

    This is the one wiring walk: both layouts emit the same arithmetic
    in the same order, and differ only where :class:`_Layout` and
    :class:`_LaneLayout` do -- the stage store, the quantiser decision,
    the DAC feedback select and a loop's output.
    """
    if layout is None:
        layout = _Layout()
    stages = spec.all_stages
    src = _Source()
    layout.arg_names.append("n_steps")
    if spec.kind in ("cell", "delay", "mod2", "chopper"):
        layout.arg_names.extend(("xa", "xb"))
    else:
        layout.arg_names.append("xs")
    layout.arg_names.append("out")
    if spec.loop is not None:
        _loop_stream_args(layout, spec.loop)
    probe_args = _probe_args(layout, stages)
    layout.begin(src, spec)
    d = 2

    if spec.kind in ("cell", "delay"):
        # A lone memory cell is a one-cell line: it outputs the sample
        # it held, negated when it inverts.
        src.line(d, "v_pos = xa[i]")
        src.line(d, "v_neg = xb[i]")
        for j, stage in enumerate(stages):
            cell_arg = probe_args.get((j, "cell"))
            if cell_arg is not None:
                src.line(d, f"{cell_arg}[i] = v_pos - v_neg")
            src.line(d, f"hp = p{j}")
            src.line(d, f"hm = m{j}")
            layout.store(src, d, j, stage.cell, "v_pos", "v_neg")
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
            _emit_stage(src, layout, d, section.first, j1, "u1p", "u1m", probe_args)
            src.line(d, "u2h = 0.5 * u2")
            src.line(d, "u2p = 0.0 + u2h")
            src.line(d, "u2m = 0.0 - u2h")
            _emit_stage(src, layout, d, section.second, j2, "u2p", "u2m", probe_args)
            src.line(d, "signal = w1")
        src.line(d, "out[i] = signal")
    elif spec.kind == "mod1":
        loop = spec.loop
        assert loop is not None
        _emit_decision(src, layout, d, loop, "p0 - m0")
        _emit_feedback(src, layout, d, loop)
        src.line(
            d, f"u_half = 0.5 * ({_prescaled(spec.a1, '(xs[i] - feedback)')})"
        )
        src.line(d, "u_pos = 0.0 + u_half")
        src.line(d, "u_neg = 0.0 - u_half")
        _emit_stage(src, layout, d, stages[0], 0, "u_pos", "u_neg", probe_args)
        layout.bitstream(src, d, loop)
    elif spec.kind in ("mod2", "chopper"):
        loop = spec.loop
        assert loop is not None
        _emit_decision(src, layout, d, loop, "p1 - m1")
        _emit_feedback_halves(src, layout, d, loop, spec.b2)
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
        _emit_stage(src, layout, d, stages[0], 0, "u1_pos", "u1_neg", probe_args)
        _emit_stage(src, layout, d, stages[1], 1, "u2_pos", "u2_neg", probe_args)
        layout.bitstream(src, d, loop)
    else:  # pragma: no cover - build_spec never produces other kinds
        raise ValueError(f"unknown kernel kind {spec.kind!r}")

    layout.end_step(src, d)
    layout.end(src, spec)
    return src.text(), layout


def _fused_cell(stages: tuple[StageSpec, ...]) -> CellSpec | None:
    """Return the store constants every stage shares, or None.

    The lane layout stores all halves with one ``store_batch`` call,
    which takes one cell's constants.  The wiring flags ``inverting``
    and ``probed`` do not enter the store law.
    """
    cells = {replace(stage.cell, inverting=False, probed=False) for stage in stages}
    return cells.pop() if len(cells) == 1 else None


def _define(source: str, name: str, kind: str, namespace: dict[str, Any]) -> Any:
    """Execute generated ``source`` and return its function ``name``."""
    exec(  # noqa: S102 - the source is generated from frozen spec literals
        compile(source, f"<repro-{name}:{kind}>", "exec"), namespace
    )
    return namespace[name]


@dataclass
class KernelProgram:
    """One compiled spec: both layouts' callables and the argument layout."""

    spec: KernelSpec
    source: str
    fn: Callable[..., Any]
    arg_names: tuple[str, ...]
    probe_slots: tuple[tuple[int, str], ...]
    state_names: tuple[str, ...]
    slew_names: tuple[str, ...]
    #: The lane-major NumPy function, called by keyword; None when the
    #: spec's cells do not share one electrical configuration.
    lane_fn: Callable[..., Any] | None = None
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
    lane_fn = None
    cell = _fused_cell(spec.all_stages)
    if cell is not None:
        lane_source, lane_layout = kernel_source(spec, _LaneLayout(cell))
        lane_globals = {"np": np, "store_batch": store_batch, "cell": cell}
        lane_globals.update(lane_layout.constants)
        lane_fn = _define(lane_source, "lanes", spec.kind, lane_globals)
    program = KernelProgram(
        spec=spec,
        source=source,
        fn=_define(source, "kernel", spec.kind, {"sqrt": math.sqrt, "exp": np.exp}),
        arg_names=tuple(layout.arg_names),
        probe_slots=tuple(layout.probe_slots),
        state_names=tuple(layout.state_names),
        slew_names=tuple(layout.slew_names),
        lane_fn=lane_fn,
    )
    _CACHE[spec] = program
    return program
