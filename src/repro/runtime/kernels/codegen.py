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
  is one masked copy over constant columns, and the stages only write
  their store targets into the block ``T``.  The period ends with
  *one* :class:`~repro.runtime.kernels.store.LaneStore` call over every
  half of every stage, so the lane layout exists only for specs whose
  cells share one electrical configuration.  A loop's bit stream is
  written once after the last period from the recorded ``up`` rows.

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

The lane layout's buffered form adds four rules, shared with
:mod:`repro.runtime.kernels.store`:

* an array operand filled with a constant ``c`` rounds exactly as the
  literal ``c`` (the same float64 operand, elementwise);
* ``out=`` changes no rounding: a ufunc writes the value it returns;
* each binary operation keeps the operand order the scalar layout
  writes, so a pair's block operation is its two half operations;
* a reversed view changes no value: a crossed stage reads its state
  block through one, ``(m, p)`` instead of ``(p, m)``.

The scalar source is shared verbatim between the pure-Python mode
(lists in, preallocated list out) and the optional numba JIT mode
(arrays in, preallocated array out) -- see
:mod:`repro.runtime.kernels.jit` for the bit-exactness probe that
gates the latter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Union

import numpy as np

from repro.runtime.kernels.spec import (
    CellSpec,
    CmffSpec,
    KernelSpec,
    LoopSpec,
    StageSpec,
)
from repro.runtime.kernels.store import LaneStore, _filled

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


#: A variable name (a row, or an indexed input such as ``xs[i]``), a
#: constant (a tuple holds one value per half), a pair, or an operation.
_Expr = Union[str, float, "tuple[float, float]", _Pair, _Op, _Half]

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


def _is_unit(value: _Expr, half: int | None) -> bool:
    """Whether ``value`` is the constant 1.0 (in ``half``; None: everywhere)."""
    if isinstance(value, tuple):
        values = value if half is None else value[half : half + 1]
        return all(v == 1.0 for v in values)
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
    if isinstance(expr, _Op):
        return any(_paired(arg) for arg in expr.args)
    return False


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


#: The NumPy ufunc each operation calls in the lane layout.
_UFUNCS = {"+": "add", "-": "subtract", "*": "multiply", "neg": "negative"}


class _LaneLayout(_Layout):
    """The lane layout: every variable is a row of ``n_lanes`` floats.

    Arrays are step-major, so ``xs[i]`` is period ``i`` of every lane
    and ``x[i]`` the ``(2, lanes)`` input block.  The state and the
    store targets live in one :class:`~repro.runtime.kernels.store.LaneStore`:
    ``S`` and ``T`` are ``(2 * n_cells, n_lanes)`` blocks whose rows
    alternate pos/neg per stage, and stage ``j`` reads its state as the
    block view ``S{j}`` (``S{j}x`` reversed when crossed) and writes its
    targets into ``T{j}``.  The period ends with **one** store call over
    all rows, then the mismatch factors and the pre-assembled noise rows
    (``+h`` on pos rows, ``-h`` on neg rows: ``a - h == a + (-h)``
    bitwise), all in place.  Every lane starts from the reset state:
    zero charge, last decision +1.  Slew events are not counted.

    Every name an assignment writes gets one buffer, allocated with the
    constants in a prologue the walk collects and :meth:`end` inserts
    before the loop; an operation nested in an expression writes into
    the destination when the expression does not read it, else into a
    scratch buffer.  A leaf assignment copies.  A loop's decision is the
    boolean row ``up``, itself row ``i`` of the ``(steps, lanes)`` record
    ``ups`` the bit stream is written from after the loop, in place:
    ``-fs`` with ``fs`` copied where ``ups`` holds is ``decision * fs``
    bitwise, as the decision is +/-1.
    """

    def __init__(self, cell: CellSpec) -> None:
        super().__init__()
        self.cell = cell
        self._prologue: list[str] = []
        self._prologue_at = 0
        self._n_cells = 0
        self._selects = 0
        self._bound: set[str] = set()
        self._views: dict[str, set[str]] = {}
        self._constants: dict[str | tuple[str, ...], str] = {}
        self._scratch: dict[bool, list[str]] = {False: [], True: []}
        self._in_use = {False: 0, True: 0}
        self._halves: dict[_Expr, str] = {}

    def inputs(self, paired: bool) -> None:
        self.arg_names.append("x" if paired else "xs")

    def _bind(self, name: str, value: str) -> None:
        self._prologue.append(f"{name} = {value}")
        self._bound.add(name)

    def _bind_pair(self, pair: _Pair, value: str) -> None:
        self._bind(pair.block, value)
        self._bind(pair.pos, f"{pair.block}[0]")
        self._bind(pair.neg, f"{pair.block}[1]")
        names = {pair.block, pair.pos, pair.neg}
        self._views.update(dict.fromkeys(names, names))

    def begin(self, src: _Source, spec: KernelSpec) -> None:
        """Open the function; bind the store, its views and the inputs."""
        stages = spec.all_stages
        self._n_cells = len(stages)
        self.arg_names.append("noise")
        src.line(0, f"def lanes({', '.join(self.arg_names)}):")
        self._prologue_at = len(src.lines)
        self._bind("n_lanes", "out.shape[-1]")
        self._prologue.append(
            "add, subtract, multiply, negative, greater_equal, copyto = "
            "np.add, np.subtract, np.multiply, np.negative, np.greater_equal, "
            "np.copyto"
        )
        self._bind("store", f"LaneStore(cell, ({2 * self._n_cells}, n_lanes))")
        self._bind("S", "store.state")
        self._bind("T", "store.target")
        for j, stage in enumerate(stages):
            self._bind(f"S{j}", f"S[{2 * j}:{2 * j + 2}]")
            self._bind(f"p{j}", f"S[{2 * j}]")
            self._bind(f"m{j}", f"S[{2 * j + 1}]")
            if stage.crossed:
                self._bind(f"S{j}x", f"S[{2 * j + 1}:{2 * j - 1 if j else ''}:-1]")
            self._bind_pair(_target(j), f"T[{2 * j}:{2 * j + 2}]")
        if "x" in self.arg_names:
            self._bind("xa", "x[:, 0]")
            self._bind("xb", "x[:, 1]")
        if spec.loop is not None:
            self._bind("ups", "np.empty(out.shape, dtype=bool)")
            if spec.loop.hysteresis != 0.0:
                self._bind("last", self._constant(1.0))
        src.line(1, "for i in range(n_steps):")

    def end_step(self, src: _Source, depth: int) -> None:
        src.line(depth, "store()")
        if self.cell.mismatch != 0.0:
            factors = (1.0 + 0.5 * self.cell.mismatch, 1.0 - 0.5 * self.cell.mismatch)
            rows = self._constant(factors * self._n_cells)
            src.line(depth, f"multiply(S, {rows}, S)")
        src.line(depth, "add(S, noise[i], S)")

    def end(self, src: _Source, spec: KernelSpec) -> None:
        """Insert the prologue; write a loop's bit stream from ``ups``."""
        if spec.loop is not None:
            fs = spec.loop.full_scale
            src.line(1, f"copyto(out, {_lit(-fs)})")
            src.line(1, f"copyto(out, {_lit(fs)}, where=ups)")
        at = self._prologue_at
        src.lines[at:at] = ["    " + line for line in self._prologue]

    def _constant(self, value: float | tuple[float, ...]) -> str:
        """Return the array holding ``value``: a row, or one row per tuple item."""
        key = tuple(map(_lit, value)) if isinstance(value, tuple) else _lit(value)
        name = self._constants.get(key)
        if name is None:
            name = self._constants[key] = f"c{len(self._constants)}"
            if isinstance(key, str):
                self._bind(name, f"_filled(n_lanes, {key})")
            else:
                column = "[" + ", ".join(f"[{v}]" for v in key) + "]"
                fill = key[0] if len(set(key)) == 1 else column
                self._bind(name, f"_filled(({len(key)}, n_lanes), {fill})")
        return name

    def _buffer(self, block: bool) -> str:
        """Return a scratch buffer free for the current assignment."""
        pool = self._scratch[block]
        if self._in_use[block] == len(pool):
            name = f"tmp{len(self._scratch[False]) + len(self._scratch[True])}"
            if block:
                self._bind_pair(_pair(name), "np.empty((2, n_lanes))")
            else:
                self._bind(name, "np.empty(n_lanes)")
            pool.append(name)
        self._in_use[block] += 1
        return pool[self._in_use[block] - 1]

    def declare(self, pair: _Pair) -> None:
        if pair.block not in self._bound:
            self._bind_pair(pair, "np.empty((2, n_lanes))")

    def _operand(self, src: _Source, depth: int, expr: _Expr, block: bool) -> str:
        """Return the array name a leaf (or a pair's half) reads as."""
        if isinstance(expr, _Half):
            inner = _fold(expr.expr, None)
            if isinstance(inner, _Pair):
                return (inner.pos, inner.neg)[expr.index]
            name = self._halves.get(inner)
            if name is None:
                name = self._halves[inner] = self._buffer(True)
                self._emit(src, depth, inner, name, True)
            return f"{name}_{('pos', 'neg')[expr.index]}"
        if isinstance(expr, _Pair):
            assert block, "a pair in a row expression"
            return expr.block
        if isinstance(expr, float):
            return self._constant((expr, expr) if block else expr)
        if isinstance(expr, tuple):
            return self._constant(expr)
        assert isinstance(expr, str), expr
        return expr

    def _emit(self, src: _Source, depth: int, op: _Op, out: str, block: bool) -> None:
        """Emit ``op`` as ufunc calls that leave its value in ``out``."""
        # ``out`` is scratch for a nested operation unless ``op`` reads
        # it, or a view of the same buffer, afterwards.
        spare = None if self._views.get(out, {out}) & _reads(op) else out
        names = []
        for arg in op.args:
            arg = _fold(arg, None)
            if isinstance(arg, _Op):
                inner_block = _paired(arg)
                if spare is not None and inner_block == block:
                    into, spare = spare, None
                else:
                    into = self._buffer(inner_block)
                self._emit(src, depth, arg, into, inner_block)
                names.append(into)
            else:
                names.append(self._operand(src, depth, arg, block))
        src.line(depth, f"{_UFUNCS[op.fn]}({', '.join(names)}, {out})")

    def assign(self, src: _Source, depth: int, dest: str | _Pair, expr: _Expr) -> None:
        """Emit ``dest = expr`` into ``dest``'s buffer (a pair: one block)."""
        self._in_use = {False: 0, True: 0}
        self._halves = {}
        block = isinstance(dest, _Pair)
        if isinstance(dest, _Pair):
            self.declare(dest)
            out = dest.block
        else:
            out = dest
            if "[" not in dest and dest not in self._bound:
                self._bind(dest, "np.empty(n_lanes)")
        expr = _fold(expr, None)
        if isinstance(expr, _Op):
            self._emit(src, depth, expr, out, block)
        elif "[" in out:
            src.line(depth, f"{out} = {self._operand(src, depth, expr, block)}")
        else:
            src.line(depth, f"{out}[...] = {self._operand(src, depth, expr, block)}")

    def decide(self, src: _Source, depth: int, loop: LoopSpec) -> None:
        src.line(depth, "up = ups[i]")
        src.line(depth, f"greater_equal(eff, {self._constant(0.0)}, up)")
        if loop.band > 0.0:
            src.line(
                depth,
                f"copyto(up, meta[i] < 0.5, where=abs(eff) < {_lit(loop.band)})",
            )
        if loop.hysteresis != 0.0:
            src.line(depth, "last = np.where(up, 1.0, -1.0)")

    def bitstream(self, src: _Source, depth: int, loop: LoopSpec) -> None:
        """Nothing per period: ``up`` is already row ``i`` of ``ups``."""

    def choose(self, src: _Source, depth: int, rows: list[_Choice]) -> None:
        """One masked copy of the ``(k, lanes)`` up/down constant columns."""
        select = f"sel{self._selects}"
        self._selects += 1
        n_rows = sum(2 if isinstance(row[0], _Pair) else 1 for row in rows)
        self._bind(select, f"np.empty(({n_rows}, n_lanes))")
        up: list[float] = []
        down: list[float] = []
        for target, if_up, if_down in rows:
            r = len(up)
            if isinstance(target, _Pair):
                self._bind_pair(target, f"{select}[{r}:{r + 2}]")
                up.extend(if_up)
                down.extend(if_down)
            else:
                self._bind(target, f"{select}[{r}]")
                up.append(if_up)
                down.append(if_down)
        src.line(depth, f"{select}[...] = {self._constant(tuple(down))}")
        src.line(depth, f"copyto({select}, {self._constant(tuple(up))}, where=up)")

    def store(
        self, src: _Source, depth: int, j: int, cell: CellSpec, target: _Pair
    ) -> None:
        """Nothing per stage: the walk wrote the targets into ``T{j}``."""
        assert target.block == f"T{j}", target.block


def _emit_split(
    src: _Source, layout: _Layout, depth: int, pair: _Pair, half: str
) -> None:
    """Emit the half-splitting ``0.0 + half`` / ``0.0 - half`` into ``pair``."""
    layout.declare(pair)
    layout.assign(src, depth, pair.pos, _add(0.0, half))
    layout.assign(src, depth, pair.neg, _sub(0.0, half))


def _emit_cmff(
    src: _Source, layout: _Layout, depth: int, cmff: CmffSpec, t: _Pair
) -> None:
    """Emit the CMFF apply on the targets ``t`` (biases always kept)."""
    sense = _add(
        _mul((cmff.sense_pos_gain, cmff.sense_neg_gain), t),
        (cmff.sense_pos_bias, cmff.sense_neg_bias),
    )
    layout.assign(src, depth, "i_cm", _add(_Half(sense, 0), _Half(sense, 1)))
    gains = (cmff.subtract_pos_gain, cmff.subtract_neg_gain)
    biases = (cmff.subtract_pos_bias, cmff.subtract_neg_bias)
    subtract: _Expr = _add(_mul(gains, "i_cm"), biases)
    if _lit(gains[0]) == _lit(gains[1]) and _lit(biases[0]) == _lit(biases[1]):
        # Same literals (the sign of a zero bias included), same value.
        layout.assign(src, depth, "i_sub", _add(_mul(gains[0], "i_cm"), biases[0]))
        subtract = "i_sub"
    layout.assign(src, depth, t, _sub(t, subtract))


def _emit_stage(
    src: _Source,
    layout: _Layout,
    depth: int,
    stage: StageSpec,
    j: int,
    u: _Pair,
    probe_args: dict[tuple[int, str], str],
) -> None:
    """Emit one integrator/differentiator step and store its targets."""
    t = _target(j)
    layout.assign(src, depth, t, _add(_state(j, stage.crossed), _mul(u, stage.gain)))
    if stage.cmff is not None:
        _emit_cmff(src, layout, depth, stage.cmff, t)
        cmff_arg = probe_args.get((j, "cmff"))
        if cmff_arg is not None:
            layout.assign(src, depth, f"{cmff_arg}[i]", _mul(0.5, _add(t.pos, t.neg)))
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
    :class:`_Layout` and :class:`_LaneLayout` do -- how an assignment
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
            _emit_stage(src, layout, d, section.first, j1, u1, probe_args)
            layout.assign(src, d, "u2h", _mul(0.5, "u2"))
            _emit_split(src, layout, d, u2, "u2h")
            _emit_stage(src, layout, d, section.second, j2, u2, probe_args)
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
        u = _pair("u")
        _emit_split(src, layout, d, u, "u_half")
        _emit_stage(src, layout, d, stages[0], 0, u, probe_args)
        layout.bitstream(src, d, loop)
    elif spec.kind in ("mod2", "chopper"):
        loop = spec.loop
        assert loop is not None
        _emit_decision(src, layout, d, loop, _sub("p1", "m1"))
        fb, fb2 = _emit_feedback_halves(src, layout, d, loop, spec.b2)
        u1, u2 = _pair("u1"), _pair("u2")
        if spec.kind == "mod2":
            layout.assign(src, d, u1, _mul(_sub(_INPUT, fb), spec.a1))
            layout.assign(src, d, u2, _sub(_mul(_state(0), spec.a2), fb2))
        else:
            layout.assign(src, d, u1, _mul(_sub(_INPUT, fb), -spec.a1))
            layout.assign(src, d, u2, _sub(fb2, _mul(_state(0), spec.a2)))
        _emit_stage(src, layout, d, stages[0], 0, u1, probe_args)
        _emit_stage(src, layout, d, stages[1], 1, u2, probe_args)
        layout.bitstream(src, d, loop)
    else:  # pragma: no cover - build_spec never produces other kinds
        raise ValueError(f"unknown kernel kind {spec.kind!r}")

    layout.end_step(src, d)
    layout.end(src, spec)
    return src.text(), layout


def _fused_cell(stages: tuple[StageSpec, ...]) -> CellSpec | None:
    """Return the store constants every stage shares, or None.

    The lane layout stores all halves with one store call, which takes
    one cell's constants.  The wiring flags ``inverting`` and ``probed``
    do not enter the store law.
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
        lane_source, _ = kernel_source(spec, _LaneLayout(cell))
        lane_globals = {
            "np": np, "LaneStore": LaneStore, "_filled": _filled, "cell": cell
        }
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
