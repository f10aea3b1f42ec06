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
  store inlined, with every constant a ``repr`` float literal.  Only
  state-dependent work stays in its loop: what reads nothing but the
  stimulus and constants runs once per run in a NumPy ``prologue``
  emitted with it (see the prologue rules below).
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
  and is compiled on a program's first batch run.  It runs over blocks
  of periods, the store and its buffers carried from one block to the
  next, and writes a loop's bit stream after each block from the
  recorded ``up`` rows.

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
  CMFF subtract biases are always kept;
* the CMFF sense biases fold away when each is a zero and every
  subtract bias is +0.0: adding a zero bias changes at most the sign
  of a zero, so ``(a + b0) + (b + b1)`` and ``a + b`` differ only where
  both are zeros, and every consumer of ``i_cm`` computes
  ``gain * i_cm + 0.0``, which maps both zeros to +0.0.  One ``-0.0``
  subtract bias keeps them all;
* two CMFF subtract mirrors with equal literal gain and bias compute
  the same value, so it is computed once (``i_sub``) for both halves;
* constants combined *at generation time* with the same operations the
  scalar loop performs at run time (``1.0 + 0.5 * mismatch``,
  ``fb_pos * b2``, ``-tau``) produce the identical 64-bit value, so
  feedback branch constants fold when the DAC is noiseless;
* ``exp`` stays ``np.exp`` on scalars (``math.exp`` differs bitwise on
  this pipeline's argument range); ``sqrt`` is correctly rounded
  everywhere and may come from ``math``;
* ``a / -b == -(a / b)`` bitwise (division is sign-symmetric and
  correctly rounded), so the small settling step is
  ``exp(margin / -tau)``, and ``n_tau = margin / tau`` is computed only
  when the half slews;
* the scalar ``delta == 0.0`` shortcut returns ``value``; without it the
  small step returns ``value - (+/-0.0) * decay``, the same float unless
  ``value`` is ``-0.0``.  The front ends ``value + residual * sqrt(..)``
  with a positive root, so a residual of +0.0 or more never yields
  ``-0.0`` (:attr:`~repro.runtime.kernels.spec.CellSpec.front_never_negative_zero`)
  and the shortcut is dropped; any other residual keeps it;
* ``decision * full_scale`` with ``decision`` +1 or -1 is exact, so the
  output is a literal in each arm of the one quantiser branch, which
  also binds the feedback; ``last`` is written each period only under
  hysteresis, else once after the loop;
* one slew flag per stage (``slewed``), set only by a slewing half,
  replaces the two per-half flags: the stage counts one event when
  either half slews, as before.  (One noise load per stage instead of
  two subscripts was measured too and did not pay.)

The prologue rules, which move work out of the scalar loop:

* an assignment that reads only the stimulus (``xa``/``xb`` or ``xs``),
  rows already hoisted and the quantiser branch's constants, and at
  least one row, is computed once per run with elementwise NumPy in
  the scalar operand order: a ufunc rounds each element exactly as the
  scalar operation does.  Reading a branch constant (a DAC level) it
  has one row per decision, which that arm of the branch loads;
* a store whose target halves are rows takes its front -- the value
  after class-AB split, transmission error and charge injection, and
  the small-step decay -- from
  :func:`~repro.runtime.kernels.store.store_front`, the NumPy front of
  the lane layout's store, over the whole row.  Its ``np.maximum``
  clamps meet no ``-0.0``; where one returns a NaN the scalar clamp
  does not, ``value`` is NaN either way;
* a probe of rows is filled by the prologue and is not a loop
  argument.

The scalar source is shared verbatim between the pure-Python mode
(lists in, preallocated list out, one call per block of periods that
takes the state the last call returned) and the optional numba JIT
mode (arrays in, preallocated array out, one call); the prologue runs
in NumPy before either -- see :mod:`repro.runtime.kernels.jit` for the
bit-exactness probe that gates the latter.  A program is cached by its
spec, and a hit must match the spec's literals: specs that differ only
in a zero's sign compare equal but do not share a program.
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


def _render(
    expr: _Expr, half: int | None, names: dict[str, str] | None = None
) -> str:
    """Render ``expr`` as one Python expression; ``half`` picks pair halves.

    ``names`` renders a variable as other text: a hoisted row read, or
    a branch's literal in the prologue.
    """
    expr = _fold(expr, half)
    if isinstance(expr, _Half):
        return _render(expr.expr, expr.index, names)
    if isinstance(expr, _Pair):
        assert half is not None, "a pair in a row expression"
        expr = (expr.pos, expr.neg)[half]
    if isinstance(expr, tuple):
        assert half is not None, "a pair constant in a row expression"
        return _lit(expr[half])
    if isinstance(expr, float):
        return _lit(expr)
    if isinstance(expr, str):
        return names.get(expr, expr) if names else expr
    assert isinstance(expr, _Op), "a stack's constant in a scalar expression"
    operands = []
    for arg in expr.args:
        text = _render(arg, half, names)
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
    front: str | None,
) -> None:
    """Emit the fused ``_store_half`` body with the cell's literals.

    Transliteration of
    :meth:`repro.si.memory_cell.ClassABMemoryCell._store_half` with its
    helpers (class-AB split, transmission error, charge injection, GGA
    settling) inlined operation for operation and every configuration
    constant inlined as a literal.  A slewing half sets ``slewed``.
    With ``front``, the prologue's store front of an input row, the
    half reads its ``value`` and ``decay`` rows instead, and only a
    slewing half computes its ``margin``.
    """
    if front is not None:
        src.line(depth, f"value = value{front}[i]")
    else:
        iq = _lit(cell.iq_squared)
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
    if not cell.front_never_negative_zero:
        src.line(depth, "if delta == 0.0:")
        src.line(depth + 1, f"{out_value} = value")
        src.line(depth, "else:")
    _emit_settle(src, depth + (not cell.front_never_negative_zero), cell, out_value, front)


def _emit_settle(
    src: _Source, depth: int, cell: CellSpec, out_value: str, front: str | None
) -> None:
    """Emit the two-regime GGA settling of ``value`` by ``delta``."""
    bias = _lit(cell.bias)
    if front is None:
        _emit_margin(src, depth, cell)
        decay = f"float(exp(margin / {_lit(-cell.tau_fraction)}))"
    else:
        decay = f"decay{front}[i]"
    src.line(depth, "magnitude = abs(delta)")
    src.line(depth, f"if magnitude <= {bias}:")
    src.line(depth + 1, f"{out_value} = value - delta * {decay}")
    src.line(depth, "else:")
    if front is not None:
        _emit_margin(src, depth + 1, cell)
    src.line(depth + 1, f"n_tau = margin / {_lit(cell.tau_fraction)}")
    src.line(depth + 1, "sign = 1.0 if delta > 0.0 else -1.0")
    src.line(depth + 1, f"slew_tau = (magnitude - {bias}) / {bias}")
    src.line(depth + 1, "if slew_tau >= n_tau:")
    src.line(depth + 2, f"residual = sign * (magnitude - {bias} * n_tau)")
    src.line(depth + 1, "else:")
    src.line(
        depth + 2,
        f"residual = sign * {bias} * float(exp(-(n_tau - slew_tau)))",
    )
    src.line(depth + 1, f"{out_value} = value - residual")
    src.line(depth + 1, "slewed = True")


def _emit_margin(src: _Source, depth: int, cell: CellSpec) -> None:
    """Emit the GGA drive ``margin`` of ``value``, clamped to its floor."""
    src.line(depth, f"margin = 1.0 - abs(value) / {_lit(cell.bias)}")
    floor = _lit(cell.margin_floor)
    src.line(depth, f"if margin < {floor}:")
    src.line(depth + 1, f"margin = {floor}")


#: What the ``choose`` emitters bind: ``(target, if_up, if_down)``,
#: with one constant per half when the target is a pair.
_Choice = tuple[Union[str, _Pair], Any, Any]


class _Branch:
    """The period's quantiser branch: its test, and one arm per decision.

    The scalar layout inserts it at ``at`` when the period closes, so
    its arms hold only what the rest of the loop turned out to read.
    """

    __slots__ = ("at", "depth", "test", "arms", "bound")

    def __init__(self, at: int, depth: int, test: str) -> None:
        self.at, self.depth, self.test = at, depth, test
        self.arms: tuple[list[str], list[str]] = (["decision = 1"], ["decision = -1"])
        self.bound: set[str] = set()


#: Where the scalar layout's argument list takes the rows the loop reads.
_ROWS = "<rows>"


class _Layout:
    """The scalar layout, and the argument bookkeeping of both layouts.

    Every generated variable holds one float and every branch is an
    ``if``; each stage stores its two halves inline the moment its
    targets are known.  ``arg_names`` and ``probe_slots`` are what the
    runner reads back to call the function and feed its probes.

    Only state-dependent work stays in the loop.  An assignment that
    reads nothing but the stimulus (``stimulus``), rows already hoisted
    and the quantiser branch's constants is moved to the NumPy
    ``prologue``, which computes it once per run; the loop reads its row.
    One that reads a branch constant has a row per decision, which the
    branch's arm loads.  A store whose target is a row takes its front
    from the prologue too (:func:`~repro.runtime.kernels.store.store_front`,
    when ``uses_front``).
    """

    def __init__(self) -> None:
        self.arg_names: list[str] = []
        self.probe_slots: list[tuple[int, str]] = []
        self.state_names: list[str] = []
        self.slew_names: list[str] = []
        #: The prologue's parameters: ``("xa", "xb")`` or ``("xs",)``.
        self.stimulus: tuple[str, ...] = ()
        self.prologue = _Source()
        self.uses_front = False
        #: Each hoisted variable's row, or its rows per decision (up, down).
        self._rows: dict[str, str | tuple[str, str]] = {}
        #: Each branch constant's values per decision (up, down).
        self._levels: dict[str, tuple[float, float]] = {}
        self._branch: _Branch | None = None
        #: The rows the loop reads, in first-read order.
        self._read: dict[str, None] = {}
        self._probes: list[str] = []
        self._hoisted_probes: list[str] = []

    def probe_arg(self, stage_index: int, tag: str) -> str:
        self.probe_slots.append((stage_index, tag))
        name = f"pb{len(self.probe_slots) - 1}"
        self.arg_names.append(name)
        self._probes.append(name)
        return name

    def inputs(self, paired: bool) -> None:
        """Name the stimulus: the two halves, or one row."""
        self.stimulus = ("xa", "xb") if paired else ("xs",)
        self.arg_names.append(_ROWS)

    def begin(self, src: _Source, spec: KernelSpec) -> int:
        """Open the function and its step loop; return the loop body's depth.

        Per-cell noise (``0.5 * draw``) and the state come in as arguments.
        """
        n_cells = len(spec.all_stages)
        self.arg_names.extend(f"hn{j}" for j in range(n_cells))
        for j in range(n_cells):
            self.state_names.extend((f"p{j}", f"m{j}"))
        if spec.loop is not None:
            self.state_names.append("last")
        self.slew_names = [f"slews{j}" for j in range(n_cells)]
        self.arg_names.extend(self.state_names)
        src.line(0, "def kernel():")  # the arguments are known at the end
        for name in self.slew_names:
            src.line(1, f"{name} = 0")
        if spec.loop is not None:
            src.line(1, "decision = last")
        src.line(1, "for i in range(n_steps):")
        return 2

    def end_step(self, src: _Source, depth: int) -> None:
        """Close one period: insert the quantiser branch, now complete."""
        branch = self._branch
        if branch is None:
            return
        pad = "    " * branch.depth
        up, down = branch.arms
        src.lines[branch.at : branch.at] = [
            f"{pad}if {branch.test}:",
            *(f"{pad}    {line}" for line in up),
            f"{pad}else:",
            *(f"{pad}    {line}" for line in down),
        ]
        self._branch = None

    def end(self, src: _Source, spec: KernelSpec) -> None:
        """Return the state; write the argument list and the prologue."""
        if spec.loop is not None and spec.loop.hysteresis == 0.0:
            src.line(1, "last = decision")
        src.line(1, f"return {', '.join(self.state_names + self.slew_names)}")
        at = self.arg_names.index(_ROWS)
        self.arg_names[at : at + 1] = list(self._read)
        for name in self._hoisted_probes:
            self.arg_names.remove(name)
        src.lines[0] = f"def kernel({', '.join(self.arg_names)}):"
        rows = ", ".join(f"{name!r}: {name}" for name in [*self._read, *self._hoisted_probes])
        src.lines[0:0] = [
            f"def prologue({', '.join(self.stimulus)}):",
            *self.prologue.lines,
            f"    return {{{rows}}}",
            "",
            "",
        ]

    def stacks(self, members: tuple[_Member, ...]) -> list[_Stack]:
        """Group ``members`` into stacks: one per stage, stored inline."""
        return [
            _Stack(((j, stage, u),), _target(j), _state(j, stage.crossed), u)
            for j, stage, u in members
        ]

    def declare(self, pair: _Pair) -> None:
        """Make ``pair``'s halves assignable one by one (scalar: nothing)."""

    def _prologue_names(self, side: int | None) -> dict[str, str]:
        """How the prologue reads each name (``side``: the decision, if any)."""
        names = {f"{name}[i]": name for name in self.stimulus}
        for name, row in self._rows.items():
            if isinstance(row, str):
                names[name] = row
            elif side is not None:
                names[name] = row[side]
        if side is not None:
            names.update((name, _lit(levels[side])) for name, levels in self._levels.items())
        return names

    def _loop_names(self, reads: Sequence[str]) -> dict[str, str]:
        """How the loop reads ``reads``: a row at ``[i]``, or a branch load."""
        names: dict[str, str] = {}
        for name in reads:
            if name.endswith("[i]") and name[:-3] in self.stimulus:
                self._read[name[:-3]] = None
            row = self._rows.get(name)
            if isinstance(row, str):
                names[name] = f"{row}[i]"
                self._read[row] = None
            elif row is not None or name in self._levels:
                self._bind_in_branch(name)
        return names

    def _bind_in_branch(self, name: str) -> None:
        """Have both arms of the branch bind ``name`` to its value."""
        branch = self._branch
        assert branch is not None, f"{name} read outside its branch's period"
        if name in branch.bound:
            return
        branch.bound.add(name)
        row = self._rows.get(name)
        for side, arm in enumerate(branch.arms):
            if isinstance(row, tuple):
                arm.append(f"{name} = {row[side]}[i]")
                self._read[row[side]] = None
            else:
                arm.append(f"{name} = {_lit(self._levels[name][side])}")

    def _hoist(self, dests: tuple[str, ...], expr: _Expr, halves: tuple[int | None, ...]) -> bool:
        """Compute ``dests = expr`` in the prologue if it reads no loop state.

        It may read the stimulus, hoisted rows and branch constants, and
        at least one row; a probe is hoisted only without a branch.
        """
        reads = set().union(*(_reads(expr, half) for half in halves))
        rows = reads & ({f"{name}[i]" for name in self.stimulus} | self._rows.keys())
        if not rows or not reads <= rows | self._levels.keys():
            return False
        branched = bool(reads & self._levels.keys()) or any(
            isinstance(self._rows.get(name), tuple) for name in reads
        )
        probe = dests[0].endswith("[i]")
        if probe and (branched or dests[0][:-3] not in self._probes):
            return False
        for dest, half in zip(dests, halves):
            if probe:
                row = dest[:-3]
                text = _render(expr, half, self._prologue_names(None))
                self.prologue.line(1, f"{row} = {text}")
                self._hoisted_probes.append(row)
                continue
            if branched:
                sides = (f"{dest}_up", f"{dest}_down")
                for side, row in enumerate(sides):
                    text = _render(expr, half, self._prologue_names(side))
                    self.prologue.line(1, f"{row} = {text}")
                self._rows[dest] = sides
            else:
                text = _render(expr, half, self._prologue_names(None))
                if not text.isidentifier():  # not a plain alias of a row
                    self.prologue.line(1, f"{dest}_r = {text}")
                    text = f"{dest}_r"
                self._rows[dest] = text
            self._levels.pop(dest, None)
        return True

    def assign(self, src: _Source, depth: int, dest: str | _Pair, expr: _Expr) -> None:
        """Emit ``dest = expr``: one line per half when ``dest`` is a pair."""
        if isinstance(dest, _Pair):
            dests: tuple[str, ...] = (dest.pos, dest.neg)
            halves: tuple[int | None, ...] = (0, 1)
            # The pos line runs first, so the neg half must not read it.
            assert dest.pos not in _reads(expr, 1), dest
        else:
            dests, halves = (dest,), (None,)
        if self._hoist(dests, expr, halves):
            return
        names = self._loop_names(
            [name for half in halves for name in sorted(_reads(expr, half))]
        )
        for name, half in zip(dests, halves):
            self._rows.pop(name, None)
            self._levels.pop(name, None)
            src.line(depth, f"{name} = {_render(expr, half, names)}")

    def decide(self, src: _Source, depth: int, loop: LoopSpec) -> None:
        """Open the branch on ``decision`` (+1/-1) from ``eff``.

        Under hysteresis the next period's threshold reads it as
        ``last``; otherwise ``last`` is written once, after the loop.
        """
        test = "eff >= 0.0"
        if loop.band > 0.0:
            test = f"(meta[i] < 0.5) if abs(eff) < {_lit(loop.band)} else ({test})"
        self._branch = _Branch(len(src.lines), depth, test)
        if loop.hysteresis != 0.0:
            src.line(depth, "last = decision")

    def bitstream(self, src: _Source, depth: int, loop: LoopSpec) -> None:
        """Emit the period's loop output sample, a literal in each arm."""
        branch = self._branch
        assert branch is not None
        # decision * full_scale, with decision +1 or -1, is exact.
        branch.arms[0].append(f"out[i] = {_lit(loop.full_scale)}")
        branch.arms[1].append(f"out[i] = {_lit(-loop.full_scale)}")

    def choose(self, src: _Source, depth: int, rows: list[_Choice]) -> None:
        """Bind each target to its ``if_up`` or ``if_down`` constant."""
        for target, if_up, if_down in rows:
            if isinstance(target, _Pair):
                self._levels[target.pos] = (if_up[0], if_down[0])
                self._levels[target.neg] = (if_up[1], if_down[1])
            else:
                self._levels[target] = (if_up, if_down)

    def store(
        self, src: _Source, depth: int, j: int, cell: CellSpec, target: _Pair
    ) -> None:
        """Store stage ``j``'s targets: both halves inline, then noise."""
        rows = [self._rows.get(name) for name in (target.pos, target.neg)]
        fronts: list[str | None] = [None, None]
        if all(isinstance(row, str) for row in rows):
            # An input row's store front is input-only work too.
            self.uses_front = True
            for half, row in enumerate(rows):
                front = fronts[half] = f"{j}_{('pos', 'neg')[half]}"
                value, decay = f"value{front}", f"decay{front}"
                self.prologue.line(1, f"{value}, {decay} = store_front(cells[{j}], {row})")
                self._read.update(dict.fromkeys((value, decay)))
        src.line(depth, "slewed = False")
        _emit_store(src, depth, cell, f"p{j}", target.pos, "sp", fronts[0])
        _emit_store(src, depth, cell, f"m{j}", target.neg, "sm", fronts[1])
        if cell.mismatch != 0.0:
            src.line(depth, f"sp = sp * {_lit(1.0 + 0.5 * cell.mismatch)}")
            src.line(depth, f"sm = sm * {_lit(1.0 - 0.5 * cell.mismatch)}")
        src.line(depth, f"p{j} = sp + hn{j}[i]")
        src.line(depth, f"m{j} = sm - hn{j}[i]")
        src.line(depth, "if slewed:")
        src.line(depth + 1, f"slews{j} = slews{j} + 1")


def _emit_split(
    src: _Source, layout: _Layout, depth: int, pair: _Pair, half: str
) -> None:
    """Emit the half-splitting ``0.0 + half`` / ``0.0 - half`` into ``pair``."""
    layout.declare(pair)
    layout.assign(src, depth, pair.pos, _add(0.0, half))
    layout.assign(src, depth, pair.neg, _sub(0.0, half))


def _positive_zero(value: float) -> bool:
    return value == 0.0 and math.copysign(1.0, value) > 0.0


def _emit_cmff(src: _Source, layout: _Layout, depth: int, stack: _Stack) -> None:
    """Emit the CMFF apply on the stack's targets.

    Every literal carries one value per stacked stage, so stages whose
    mirrors differ share the sequence; a unit gain folds only where
    every stage's is 1.0.  The sense biases fold away when they are
    zeros and every subtract bias is +0.0 (see the module docstring).
    """
    cmffs = [stage.cmff for _, stage, _ in stack.members if stage.cmff is not None]
    assert len(cmffs) == len(stack.members), "a stack mixes stages with and without CMFF"
    t = stack.target
    gains = [(c.subtract_pos_gain, c.subtract_neg_gain) for c in cmffs]
    biases = [(c.subtract_pos_bias, c.subtract_neg_bias) for c in cmffs]
    sense: _Expr = _mul(_pair_rows([(c.sense_pos_gain, c.sense_neg_gain) for c in cmffs]), t)
    sense_biases = [(c.sense_pos_bias, c.sense_neg_bias) for c in cmffs]
    if not (
        all(bias == 0.0 for pair in sense_biases for bias in pair)
        and all(_positive_zero(bias) for pair in biases for bias in pair)
    ):
        sense = _add(sense, _pair_rows(sense_biases))
    layout.assign(src, depth, stack.i_cm, _add(_Half(sense, 0), _Half(sense, 1)))
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
    d = layout.begin(src, spec)

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
    #: The NumPy prologue: the stimulus rows in (``stimulus``), by
    #: keyword; the rows ``fn`` reads and the probes it fills out.
    prologue: Callable[..., dict[str, np.ndarray]]
    stimulus: tuple[str, ...]
    #: ``repr(spec)``: the spec's literals, the sign of a zero included.
    literals: str
    #: The lane-major NumPy function, ``lane_fn(n_lanes, blocks)``:
    #: compiled by the first
    #: :func:`~repro.runtime.kernels.lanes.lane_function` call, None
    #: until then.
    lane_fn: Callable[..., Any] | None = None
    #: What each of ``lane_fn``'s blocks holds, in order: the block's
    #: period count (``n_steps``) and its step-major arrays.
    lane_args: tuple[str, ...] = ()
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
    # Specs compare their floats with ==, so two that differ only in a
    # zero's sign are equal, but their programs are not: a hit must
    # match the spec's literals too.
    literals = repr(spec)
    if program is not None and program.literals == literals:
        return program
    source, layout = kernel_source(spec)
    namespace: dict[str, Any] = {"sqrt": math.sqrt, "exp": np.exp}
    if layout.uses_front:
        # Imported here: only open-loop cells read a store front.
        from repro.runtime.kernels.store import store_front

        namespace["store_front"] = store_front
        namespace["cells"] = tuple(stage.cell for stage in spec.all_stages)
    program = KernelProgram(
        spec=spec,
        source=source,
        fn=_define(source, "kernel", spec.kind, namespace),
        arg_names=tuple(layout.arg_names),
        probe_slots=tuple(layout.probe_slots),
        state_names=tuple(layout.state_names),
        slew_names=tuple(layout.slew_names),
        prologue=namespace["prologue"],
        stimulus=layout.stimulus,
        literals=literals,
    )
    _CACHE[spec] = program
    return program
