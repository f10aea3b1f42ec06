"""Per-spec source generation for both lowered engines.

One wiring walk (:func:`kernel_source`) compiles each
:class:`~repro.runtime.kernels.spec.KernelSpec` into two flat Python
functions, one per data layout, whose bodies are the device loop with
every abstraction *folded at generation time*: cell constants, loop
coefficients and mirror gains become constants, stages unroll, and
identity operations are elided where IEEE-754 proves them
bitwise-invisible.

The walk describes each assignment as a small expression tree
(:class:`_Op` over variable names, float constants and
:class:`_Pair` leaves, the pos/neg halves of one differential
quantity); each layout renders the tree its own way.

* The **scalar layout** (``kernel``) runs one device: one float per
  variable, one Python expression per assignment -- a pair assignment
  is two lines, one per half -- ``if`` branches, and each half-circuit
  store inlined, with every constant a ``repr`` float literal.
* The **lane layout** (``lanes``) runs many lanes at once: a variable
  is a row of ``n_lanes`` floats and a pair one ``(2, n_lanes)`` block,
  and each operation is one ``out=`` ufunc call into a buffer the
  function allocates once per run -- a pair assignment is one call per
  operation, not two.  Constants are arrays filled once per run, the
  quantiser decision is a boolean row ``up``, the DAC feedback select
  is one gather from a table of constant columns, and the stages only
  write their store targets into the block ``T``; stages stepped
  together form theirs over one stacked ``(stages, 2, n_lanes)`` view
  (:class:`_Stack`), one call per operation for all of them.  The
  period ends with *one* call of a
  :class:`~repro.runtime.kernels.store.LaneStore`'s bound store over
  every half of every stage, so the lane layout exists only for specs
  whose cells share one electrical configuration.  It lives in
  :mod:`repro.runtime.kernels.lanes`, with the rules its buffers add,
  and is compiled on a program's first batch run.  A loop's bit
  stream is written once after the last period from the recorded
  ``up`` rows.

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
from dataclasses import dataclass
from typing import Any, Callable, Sequence, Union

import numpy as np

from repro.runtime.kernels.spec import CellSpec, KernelSpec, LoopSpec, StageSpec

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


# -- the expression trees the walk emits --------------------------------------


# Plain slotted classes, not dataclasses: this module is imported by
# every ``repro report`` process, and a frozen dataclass costs about a
# millisecond to create.


class _Pair:
    """A pos/neg pair: two scalar variables, or one ``(2, lanes)`` block.

    The lane layout binds ``pos`` and ``neg`` to the block's rows, so a
    half has the same name in both layouts.
    """

    __slots__ = ("pos", "neg", "block")

    def __init__(self, pos: str, neg: str, block: str) -> None:
        self.pos, self.neg, self.block = pos, neg, block


class _Op:
    """One operation: binary ``+``, ``-``, ``*``, or unary ``neg``."""

    __slots__ = ("fn", "args")

    def __init__(self, fn: str, args: tuple[_Expr, ...]) -> None:
        self.fn, self.args = fn, args


class _Half:
    """The pos (0) or neg (1) half of a pair-valued expression."""

    __slots__ = ("expr", "index")

    def __init__(self, expr: _Expr, index: int) -> None:
        self.expr, self.index = expr, index


class _Rows:
    """A constant of a lane-layout stack: one tuple per stage.

    Each tuple holds the stage's pos and neg values (a pair constant) or
    its one value (a row constant).  Only a stack of several stages
    (:class:`_Stack`) holds one; a lone stage's constant is its plain
    literal (:func:`_rows`, :func:`_pair_rows`).
    """

    __slots__ = ("values",)

    def __init__(self, values: tuple[tuple[float, ...], ...]) -> None:
        self.values = values


#: A variable name (a row, or an indexed input such as ``xs[i]``), a
#: constant (a tuple holds one value per half; a stack's are
#: :class:`_Rows`), a pair, or an operation.
_Expr = Union[str, float, "tuple[float, float]", _Rows, _Pair, _Op, _Half]

#: The differential input of the current period.
_INPUT = _Pair("xa[i]", "xb[i]", "x[i]")


def _add(a: _Expr, b: _Expr) -> _Op:
    return _Op("+", (a, b))


def _sub(a: _Expr, b: _Expr) -> _Op:
    return _Op("-", (a, b))


def _mul(a: _Expr, b: _Expr) -> _Op:
    return _Op("*", (a, b))


def _neg(a: _Expr) -> _Op:
    return _Op("neg", (a,))


def _pair(base: str) -> _Pair:
    return _Pair(f"{base}_pos", f"{base}_neg", base)


def _state(j: int, crossed: bool = False) -> _Pair:
    """Stage ``j``'s stored pair; a crossed stage reads it as ``(m, p)``."""
    if crossed:
        return _Pair(f"m{j}", f"p{j}", f"S{j}x")
    return _Pair(f"p{j}", f"m{j}", f"S{j}")


def _target(j: int) -> _Pair:
    """The pair stage ``j`` stores this period."""
    return _Pair(f"t{j}_pos", f"t{j}_neg", f"T{j}")


def _rows(values: Sequence[float]) -> float | _Rows:
    """A row constant over stacked stages; a lone stage's is its literal."""
    return values[0] if len(values) == 1 else _Rows(tuple((v,) for v in values))


def _pair_rows(pairs: Sequence[tuple[float, float]]) -> tuple[float, float] | _Rows:
    """A pair constant over stacked stages; a lone stage's is its pair."""
    return pairs[0] if len(pairs) == 1 else _Rows(tuple(pairs))


def _is_unit(value: _Expr, half: int | None) -> bool:
    """Whether ``value`` is the constant 1.0 (in ``half``; None: everywhere).

    A stack's constant is 1.0 only where every stage's value is.
    """
    if isinstance(value, tuple):
        values = value if half is None else value[half : half + 1]
        return all(v == 1.0 for v in values)
    if isinstance(value, _Rows):
        return all(v == 1.0 for stage in value.values for v in stage)
    return isinstance(value, float) and value == 1.0


def _fold(expr: _Expr, half: int | None) -> _Expr:
    """Elide ``x * 1.0`` and ``1.0 * x`` at the top of ``expr``."""
    while isinstance(expr, _Op) and expr.fn == "*":
        a, b = expr.args
        if _is_unit(b, half):
            expr = a
        elif _is_unit(a, half):
            expr = b
        else:
            break
    return expr


def _render(expr: _Expr, half: int | None) -> str:
    """Render ``expr`` as one Python expression; ``half`` picks pair halves."""
    expr = _fold(expr, half)
    if isinstance(expr, _Half):
        return _render(expr.expr, expr.index)
    if isinstance(expr, _Pair):
        assert half is not None, "a pair in a row expression"
        return (expr.pos, expr.neg)[half]
    if isinstance(expr, tuple):
        assert half is not None, "a pair constant in a row expression"
        return _lit(expr[half])
    if isinstance(expr, float):
        return _lit(expr)
    if isinstance(expr, str):
        return expr
    assert isinstance(expr, _Op), "a stack's constant in a scalar expression"
    operands = []
    for arg in expr.args:
        text = _render(arg, half)
        operands.append(f"({text})" if " " in text else text)
    if expr.fn == "neg":
        return f"-{operands[0]}"
    return f"{operands[0]} {expr.fn} {operands[1]}"


def _reads(expr: _Expr, half: int | None = None) -> set[str]:
    """Return the names ``expr`` reads (in ``half``; None: a pair's three)."""
    if isinstance(expr, str):
        return {expr}
    if isinstance(expr, _Pair):
        if half is None:
            return {expr.pos, expr.neg, expr.block}
        return {(expr.pos, expr.neg)[half]}
    if isinstance(expr, _Half):
        return _reads(expr.expr, expr.index)
    names: set[str] = set()
    if isinstance(expr, _Op):
        for arg in expr.args:
            names |= _reads(arg, half)
    return names


def _paired(expr: _Expr) -> bool:
    """Whether ``expr`` is pair-valued (a block in the lane layout)."""
    if isinstance(expr, (_Pair, tuple)):
        return True
    if isinstance(expr, _Rows):
        return len(expr.values[0]) == 2
    if isinstance(expr, _Op):
        return any(_paired(arg) for arg in expr.args)
    return False


#: One stage the walk steps: ``(j, stage, u)``, stage ``j`` and its input
#: pair ``u``.
_Member = tuple[int, StageSpec, _Pair]


class _Stack:
    """Stages whose targets one sequence of assignments forms.

    ``target``, ``state`` and ``inputs`` are pairs covering every member,
    and ``i_cm`` and ``i_sub`` name the stack's CMFF rows.  A lone stage
    is a stack of itself: its own pairs, and the rows the scalar layout
    has always named.
    """

    __slots__ = ("members", "target", "state", "inputs", "i_cm", "i_sub")

    def __init__(
        self,
        members: tuple[_Member, ...],
        target: _Pair,
        state: _Pair,
        inputs: _Pair,
        rows: tuple[str, str] = ("i_cm", "i_sub"),
    ) -> None:
        self.members, self.target, self.state, self.inputs = (
            members, target, state, inputs
        )
        self.i_cm, self.i_sub = rows


def _input(j: int, base: str) -> _Pair:
    """Stage ``j``'s input pair, row ``j`` of the lane layout's block ``U``."""
    return _Pair(f"{base}_pos", f"{base}_neg", f"U{j}")


# -- the two layouts ----------------------------------------------------------


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


#: What the ``choose`` emitters bind: ``(target, if_up, if_down)``,
#: with one constant per half when the target is a pair.
_Choice = tuple[Union[str, _Pair], Any, Any]


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

    def inputs(self, paired: bool) -> None:
        """Name the stimulus arguments: the two halves, or one row."""
        self.arg_names.extend(("xa", "xb") if paired else ("xs",))

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

    def stacks(self, members: tuple[_Member, ...]) -> list[_Stack]:
        """Group ``members`` into stacks: one per stage, stored inline."""
        return [
            _Stack(((j, stage, u),), _target(j), _state(j, stage.crossed), u)
            for j, stage, u in members
        ]

    def declare(self, pair: _Pair) -> None:
        """Make ``pair``'s halves assignable one by one (scalar: nothing)."""

    def assign(self, src: _Source, depth: int, dest: str | _Pair, expr: _Expr) -> None:
        """Emit ``dest = expr``: one line per half when ``dest`` is a pair."""
        if not isinstance(dest, _Pair):
            src.line(depth, f"{dest} = {_render(expr, None)}")
            return
        # The pos line runs first, so the neg half must not read it.
        assert dest.pos not in _reads(expr, 1), dest
        src.line(depth, f"{dest.pos} = {_render(expr, 0)}")
        src.line(depth, f"{dest.neg} = {_render(expr, 1)}")

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

    def choose(self, src: _Source, depth: int, rows: list[_Choice]) -> None:
        """Bind each target to its ``if_up`` or ``if_down`` constant."""
        for up, head in ((True, "if decision == 1:"), (False, "else:")):
            src.line(depth, head)
            for target, if_up, if_down in rows:
                value = if_up if up else if_down
                if isinstance(target, _Pair):
                    src.line(depth + 1, f"{target.pos} = {_lit(value[0])}")
                    src.line(depth + 1, f"{target.neg} = {_lit(value[1])}")
                else:
                    src.line(depth + 1, f"{target} = {_lit(value)}")

    def store(
        self, src: _Source, depth: int, j: int, cell: CellSpec, target: _Pair
    ) -> None:
        """Store stage ``j``'s targets: both halves inline, then noise."""
        _emit_store(src, depth, cell, f"p{j}", target.pos, "sp", "slp")
        _emit_store(src, depth, cell, f"m{j}", target.neg, "sm", "slm")
        if cell.mismatch != 0.0:
            src.line(depth, f"sp = sp * {_lit(1.0 + 0.5 * cell.mismatch)}")
            src.line(depth, f"sm = sm * {_lit(1.0 - 0.5 * cell.mismatch)}")
        src.line(depth, f"p{j} = sp + hn{j}[i]")
        src.line(depth, f"m{j} = sm - hn{j}[i]")
        src.line(depth, "if slp or slm:")
        src.line(depth + 1, f"slews{j} = slews{j} + 1")


def _emit_split(
    src: _Source, layout: _Layout, depth: int, pair: _Pair, half: str
) -> None:
    """Emit the half-splitting ``0.0 + half`` / ``0.0 - half`` into ``pair``."""
    layout.declare(pair)
    layout.assign(src, depth, pair.pos, _add(0.0, half))
    layout.assign(src, depth, pair.neg, _sub(0.0, half))


def _emit_cmff(src: _Source, layout: _Layout, depth: int, stack: _Stack) -> None:
    """Emit the CMFF apply on the stack's targets (biases always kept).

    Every literal carries one value per stacked stage, so stages whose
    mirrors differ share the sequence; a unit gain folds only where
    every stage's is 1.0.
    """
    cmffs = [stage.cmff for _, stage, _ in stack.members if stage.cmff is not None]
    assert len(cmffs) == len(stack.members), "a stack mixes stages with and without CMFF"
    t = stack.target
    sense = _add(
        _mul(_pair_rows([(c.sense_pos_gain, c.sense_neg_gain) for c in cmffs]), t),
        _pair_rows([(c.sense_pos_bias, c.sense_neg_bias) for c in cmffs]),
    )
    layout.assign(src, depth, stack.i_cm, _add(_Half(sense, 0), _Half(sense, 1)))
    gains = [(c.subtract_pos_gain, c.subtract_neg_gain) for c in cmffs]
    biases = [(c.subtract_pos_bias, c.subtract_neg_bias) for c in cmffs]
    subtract: _Expr = _add(_mul(_pair_rows(gains), stack.i_cm), _pair_rows(biases))
    if all(
        _lit(gain[0]) == _lit(gain[1]) and _lit(bias[0]) == _lit(bias[1])
        for gain, bias in zip(gains, biases)
    ):
        # Same literals (the sign of a zero bias included), same value.
        layout.assign(
            src,
            depth,
            stack.i_sub,
            _add(
                _mul(_rows([gain[0] for gain in gains]), stack.i_cm),
                _rows([bias[0] for bias in biases]),
            ),
        )
        subtract = stack.i_sub
    layout.assign(src, depth, t, _sub(t, subtract))


def _emit_stages(
    src: _Source,
    layout: _Layout,
    depth: int,
    members: tuple[_Member, ...],
    probe_args: dict[tuple[int, str], str],
) -> None:
    """Emit integrator/differentiator steps and store their targets.

    Stage ``j`` of ``members`` adds its input (times its gain) to its
    state.  The targets read only the state the period started from,
    so the layout may form several at once: each stack
    (:meth:`_Layout.stacks`) forms its targets with one assignment and
    applies CMFF once, then each member's probes read, and its store
    takes, the member's own targets.
    """
    for stack in layout.stacks(members):
        gains = _pair_rows([(stage.gain, stage.gain) for _, stage, _ in stack.members])
        layout.assign(
            src, depth, stack.target, _add(stack.state, _mul(stack.inputs, gains))
        )
        if stack.members[0][1].cmff is not None:
            _emit_cmff(src, layout, depth, stack)
        for j, stage, _ in stack.members:
            t = _target(j)
            cmff_arg = probe_args.get((j, "cmff"))
            if cmff_arg is not None:
                layout.assign(
                    src, depth, f"{cmff_arg}[i]", _mul(0.5, _add(t.pos, t.neg))
                )
            cell_arg = probe_args.get((j, "cell"))
            if cell_arg is not None:
                layout.assign(src, depth, f"{cell_arg}[i]", _sub(t.pos, t.neg))
            layout.store(src, depth, j, stage.cell, t)


def _emit_decision(
    src: _Source, layout: _Layout, depth: int, loop: LoopSpec, base: _Expr
) -> None:
    """Emit the quantiser decision for the differential value ``base``."""
    if loop.dither_rms > 0.0:
        base = _add(base, "dith[i]")
    eff: _Expr
    if loop.hysteresis != 0.0:
        eff = _sub(base, _sub(loop.offset, _mul(loop.hysteresis, "last")))
    elif loop.offset != 0.0:
        # offset - 0.0 * last == offset - (+/-0.0) == offset exactly.
        eff = _sub(base, loop.offset)
    else:
        # threshold == +0.0 and `a - 0.0` is the IEEE identity.
        eff = base
    layout.assign(src, depth, "eff", eff)
    layout.decide(src, depth, loop)


def _emit_feedback(
    src: _Source, layout: _Layout, depth: int, loop: LoopSpec
) -> None:
    """Emit the DAC output ``feedback`` for the decision."""
    layout.choose(src, depth, [("feedback", loop.level_pos, loop.level_neg)])
    if loop.dac_rms > 0.0:
        layout.assign(src, depth, "feedback", _add("feedback", "dacn[i]"))


def _emit_feedback_halves(
    src: _Source, layout: _Layout, depth: int, loop: LoopSpec, b2: float
) -> tuple[_Pair, _Pair]:
    """Emit the feedback pair ``fb`` and its ``b2``-scaled twin ``fb2``.

    With a noiseless DAC the feedback is two-valued per decision, so
    every derived quantity folds to a literal computed here with the
    exact run-time expressions.
    """
    fb, fb2 = _pair("fb"), _pair("fb2")
    if loop.dac_rms == 0.0:
        folded = []
        for level in (loop.level_pos, loop.level_neg):
            fb_half = 0.5 * level
            fb_pos = 0.0 + fb_half
            fb_neg = 0.0 - fb_half
            folded.append(((fb_pos, fb_neg), (fb_pos * b2, fb_neg * b2)))
        (fb_up, fb2_up), (fb_down, fb2_down) = folded
        layout.choose(src, depth, [(fb, fb_up, fb_down), (fb2, fb2_up, fb2_down)])
    else:
        _emit_feedback(src, layout, depth, loop)
        layout.assign(src, depth, "fb_half", _mul(0.5, "feedback"))
        _emit_split(src, layout, depth, fb, "fb_half")
        layout.assign(src, depth, fb2, _mul(fb, b2))
    return fb, fb2


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

    This is the one wiring walk: both layouts render the same
    expression trees in the same order, and differ only where
    :class:`_Layout` and :class:`~repro.runtime.kernels.lanes._LaneLayout`
    do -- how an assignment
    is rendered, the stage store, the quantiser decision, the DAC
    feedback select and a loop's output.
    """
    if layout is None:
        layout = _Layout()
    stages = spec.all_stages
    src = _Source()
    layout.arg_names.append("n_steps")
    layout.inputs(spec.kind in ("cell", "delay", "mod2", "chopper"))
    layout.arg_names.append("out")
    if spec.loop is not None:
        _loop_stream_args(layout, spec.loop)
    probe_args = _probe_args(layout, stages)
    layout.begin(src, spec)
    d = 2

    if spec.kind in ("cell", "delay"):
        # A lone memory cell is a one-cell line: it outputs the sample
        # it held, negated when it inverts.  Each stage's held sample
        # becomes the next stage's target before the stage stores.
        t = _target(0)
        layout.assign(src, d, t, _INPUT)
        for j, stage in enumerate(stages):
            cell_arg = probe_args.get((j, "cell"))
            if cell_arg is not None:
                layout.assign(src, d, f"{cell_arg}[i]", _sub(t.pos, t.neg))
            held = _target(j + 1) if j + 1 < len(stages) else _pair("v")
            state = _state(j)
            layout.assign(src, d, held, _neg(state) if stage.cell.inverting else state)
            layout.store(src, d, j, stage.cell, t)
            t = held
        layout.assign(src, d, "out[i]", _sub(t.pos, t.neg))
    elif spec.kind == "cascade":
        layout.assign(src, d, "signal", "xs[i]")
        for s, section in enumerate(spec.sections):
            j1, j2 = 2 * s, 2 * s + 1
            layout.assign(src, d, "w1", _sub(f"p{j1}", f"m{j1}"))
            layout.assign(src, d, "w2", _sub(f"p{j2}", f"m{j2}"))
            inner = _sub(_sub("signal", _mul(section.q, "w1")), "w2")
            layout.assign(src, d, "u1", _mul(section.k1, inner))
            layout.assign(src, d, "u2", _mul(section.k2, "w1"))
            u1, u2 = _Pair("u1p", "u1m", "u1b"), _Pair("u2p", "u2m", "u2b")
            layout.assign(src, d, "u1h", _mul(0.5, "u1"))
            _emit_split(src, layout, d, u1, "u1h")
            _emit_stages(src, layout, d, ((j1, section.first, u1),), probe_args)
            layout.assign(src, d, "u2h", _mul(0.5, "u2"))
            _emit_split(src, layout, d, u2, "u2h")
            _emit_stages(src, layout, d, ((j2, section.second, u2),), probe_args)
            layout.assign(src, d, "signal", "w1")
        layout.assign(src, d, "out[i]", "signal")
    elif spec.kind == "mod1":
        loop = spec.loop
        assert loop is not None
        _emit_decision(src, layout, d, loop, _sub("p0", "m0"))
        _emit_feedback(src, layout, d, loop)
        layout.assign(
            src, d, "u_half", _mul(0.5, _mul(spec.a1, _sub("xs[i]", "feedback")))
        )
        u = _input(0, "u")
        _emit_split(src, layout, d, u, "u_half")
        _emit_stages(src, layout, d, ((0, stages[0], u),), probe_args)
        layout.bitstream(src, d, loop)
    elif spec.kind in ("mod2", "chopper"):
        loop = spec.loop
        assert loop is not None
        _emit_decision(src, layout, d, loop, _sub("p1", "m1"))
        fb, fb2 = _emit_feedback_halves(src, layout, d, loop, spec.b2)
        u1, u2 = _input(0, "u1"), _input(1, "u2")
        if spec.kind == "mod2":
            layout.assign(src, d, u1, _mul(_sub(_INPUT, fb), spec.a1))
            layout.assign(src, d, u2, _sub(_mul(_state(0), spec.a2), fb2))
        else:
            layout.assign(src, d, u1, _mul(_sub(_INPUT, fb), -spec.a1))
            layout.assign(src, d, u2, _sub(fb2, _mul(_state(0), spec.a2)))
        members = ((0, stages[0], u1), (1, stages[1], u2))
        _emit_stages(src, layout, d, members, probe_args)
        layout.bitstream(src, d, loop)
    else:  # pragma: no cover - build_spec never produces other kinds
        raise ValueError(f"unknown kernel kind {spec.kind!r}")

    layout.end_step(src, d)
    layout.end(src, spec)
    return src.text(), layout


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
    #: The lane-major NumPy function, called by keyword: compiled by the
    #: first :func:`~repro.runtime.kernels.lanes.lane_function` call,
    #: None until then.
    lane_fn: Callable[..., Any] | None = None
    #: numba-compiled callable, populated lazily by the runner.
    jit_fn: Callable[..., Any] | None = None
    #: "untried", "active", or the named refusal reason.
    jit_state: str = "untried"


_CACHE: dict[KernelSpec, KernelProgram] = {}


def compile_spec(spec: KernelSpec) -> KernelProgram:
    """Return the (cached) compiled program for ``spec``: its scalar layout.

    The lane layout is compiled on demand
    (:func:`~repro.runtime.kernels.lanes.lane_function`): a report, a
    service job or a narrow sweep runs only the scalar one.
    """
    program = _CACHE.get(spec)
    if program is not None:
        return program
    source, layout = kernel_source(spec)
    program = KernelProgram(
        spec=spec,
        source=source,
        fn=_define(source, "kernel", spec.kind, {"sqrt": math.sqrt, "exp": np.exp}),
        arg_names=tuple(layout.arg_names),
        probe_slots=tuple(layout.probe_slots),
        state_names=tuple(layout.state_names),
        slew_names=tuple(layout.slew_names),
    )
    _CACHE[spec] = program
    return program
