"""The lane layout: the codegen walk rendered for many lanes at once.

:func:`~repro.runtime.kernels.codegen.kernel_source` walks a spec's
wiring once per layout.  :class:`_LaneLayout` renders that walk as a
NumPy function (``lanes``) over every lane of a batch: a variable is a
row of ``n_lanes`` floats, a pos/neg pair one ``(2, n_lanes)`` block,
and each operation one ``out=`` ufunc call into a buffer allocated once
per run.  Stages stepped together form their targets over one stacked
``(stages, 2, n_lanes)`` view (:func:`_stackable`), and each period ends
with one call of a :class:`~repro.runtime.kernels.store.LaneStore`'s
bound store.  :func:`lane_function` compiles it on a program's first
batch run, so a single run never imports this module.

The buffered form adds five rules to the walk's folding rules, shared
with :mod:`repro.runtime.kernels.store`:

* an array operand filled with a constant ``c`` rounds exactly as the
  literal ``c`` (the same float64 operand, elementwise) -- a stack's
  constant block holds each stage's own literal in its rows;
* ``out=`` changes no rounding: a ufunc writes the value it returns;
* each binary operation keeps the operand order the scalar layout
  writes, so a pair's block operation is its two half operations, and
  a stack's is its stages' pair operations;
* a reversed view changes no value: a crossed stage reads its state
  block through one, ``(m, p)`` instead of ``(p, m)``;
* a gather or a masked copy moves each selected value unchanged.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Sequence

import numpy as np

from repro.runtime.kernels.codegen import (
    KernelProgram,
    _Choice,
    _define,
    _Expr,
    _fold,
    _Half,
    _Layout,
    _lit,
    _Member,
    _Op,
    _Pair,
    _pair,
    _paired,
    _reads,
    _Rows,
    _Source,
    _Stack,
    _target,
    kernel_source,
)
from repro.runtime.kernels.spec import CellSpec, KernelSpec, LoopSpec, StageSpec
from repro.runtime.kernels.store import LaneStore, _filled

__all__ = ["lane_function", "lane_refusal"]


def _fused_cell(stages: tuple[StageSpec, ...]) -> CellSpec | None:
    """Return the store constants every stage shares, or None.

    The lane layout stores all halves with one store call, which takes
    one cell's constants.  The wiring flags ``inverting`` and ``probed``
    do not enter the store law.  Cells are told apart by their literals,
    as ``-0.0 == 0.0`` would merge two that store differently.
    """
    cells = {
        repr(cell): cell
        for cell in (replace(stage.cell, inverting=False, probed=False) for stage in stages)
    }
    return cells.popitem()[1] if len(cells) == 1 else None


def _stackable(members: tuple[_Member, ...]) -> bool:
    """Whether the lane layout forms ``members``' targets as one stack.

    One block view must cover every member's state, input and target,
    and one CMFF sequence (or none) must apply to all of them: the
    members are consecutive stages, each input is its stage's row of
    ``U``, and each member is crossed, and has CMFF, exactly when the
    first one is and has.  Otherwise each stage is a stack of itself.
    """
    j0, first, _ = members[0]
    return all(
        j == j0 + n
        and u.block == f"U{j}"
        and stage.crossed == first.crossed
        and (stage.cmff is None) == (first.cmff is None)
        for n, (j, stage, u) in enumerate(members)
    )


#: The NumPy ufunc each operation calls in the lane layout.
_UFUNCS = {"+": "add", "-": "subtract", "*": "multiply", "neg": "negative"}


class _LaneLayout(_Layout):
    """The lane layout: every variable is a row of ``n_lanes`` floats.

    The function takes ``n_lanes`` and an iterable of blocks, each a
    tuple of ``arg_names``: a period count ``n_steps`` and that many
    step-major rows of each array, so ``xs[i]`` is the block's period
    ``i`` of every lane and ``x[i]`` its ``(2, lanes)`` input block (the
    walk reads a differential input only as that block).  The state and the
    store targets live in one :class:`~repro.runtime.kernels.store.LaneStore`:
    ``S`` and ``T`` are ``(2 * n_cells, n_lanes)`` blocks whose rows
    alternate pos/neg per stage.  Stage ``j`` reads its state as the
    block view ``S{j}`` (``S{j}x``, reversed, when crossed), its input
    as ``U{j}`` of the input block ``U`` laid out alike, and writes its
    targets into ``T{j}``; every per-stage view is contiguous.  Stages
    stepped together that :func:`_stackable` accepts form one stack: a
    ``(k, 2, n_lanes)`` view of each block covers them, a stack's
    halves and rows (``i_cm``) are ``(k, 1, n_lanes)``, and each
    constant holds one value per stage, so one call per operation
    serves every stage.  The period ends with **one** bound store call
    over all rows, then the mismatch factors and the pre-assembled
    noise rows (``+h`` on pos rows, ``-h`` on neg rows:
    ``a - h == a + (-h)`` bitwise), all in place.  Every lane starts
    from the reset state: zero charge, last decision +1.  Slew events
    are not counted.

    Every name an assignment writes gets one buffer, allocated with the
    constants in a prologue the walk collects and :meth:`end` inserts
    before the block loop, so the store, its state and every buffer
    carry over from one block to the next; an operation nested in an
    expression writes into the destination when the expression does not
    read it, else into a scratch buffer.  A leaf assignment copies.  A
    loop's decision is the boolean row ``up``, itself row ``i`` of the
    block's ``(steps, lanes)`` record ``ups`` the block's bit stream is
    written from after its last period, in place: ``-fs`` with ``fs``
    copied where ``ups`` holds is ``decision * fs`` bitwise, as the
    decision is +/-1.
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
        self._constants: dict[tuple[str, str], str] = {}
        #: Scratch buffers by (pair-valued, stack size).
        self._scratch: dict[tuple[bool, int | None], list[str]] = {}
        self._in_use: dict[tuple[bool, int | None], int] = {}
        self._halves: dict[_Expr, str] = {}
        #: The stack size of every stack block and row name.
        self._stacked: dict[str, int] = {}
        #: The stack size of the assignment being emitted (None: no stack).
        self._k: int | None = None
        #: Each stage input block's rows of ``U``.
        self._input_rows: dict[str, str] = {}

    def inputs(self, paired: bool) -> None:
        self.arg_names.append("x" if paired else "xs")

    def _bind(self, name: str, value: str) -> None:
        self._prologue.append(f"{name} = {value}")
        self._bound.add(name)

    def _bind_pair(self, pair: _Pair, value: str, stacked: bool = False) -> None:
        """Bind ``pair``'s block and its halves (a stack's are ``(k, 1, n)``)."""
        self._bind(pair.block, value)
        halves = ("[:, 0:1]", "[:, 1:2]") if stacked else ("[0]", "[1]")
        self._bind(pair.pos, f"{pair.block}{halves[0]}")
        self._bind(pair.neg, f"{pair.block}{halves[1]}")
        names = {pair.block, pair.pos, pair.neg}
        self._views.update(dict.fromkeys(names, names))

    def begin(self, src: _Source, spec: KernelSpec) -> int:
        """Open the function, its block loop and its step loop.

        Binds the store and its views; returns the step loop body's
        depth.
        """
        stages = spec.all_stages
        n = self._n_cells = len(stages)
        self.arg_names.append("noise")
        src.line(0, "def lanes(n_lanes, blocks):")
        self._prologue_at = len(src.lines)
        self._prologue.append(
            "add, subtract, multiply, negative, greater_equal, copyto = "
            "np.add, np.subtract, np.multiply, np.negative, np.greater_equal, "
            "np.copyto"
        )
        self._bind("store", f"LaneStore(cell, ({2 * n}, n_lanes))")
        self._bind("settle", "store.settle")
        self._bind("S", "store.state")
        self._bind("T", "store.target")
        for j, stage in enumerate(stages):
            self._input_rows[f"U{j}"] = f"{2 * j}:{2 * j + 2}"
            self._bind(f"S{j}", f"S[{2 * j}:{2 * j + 2}]")
            self._bind(f"p{j}", f"S[{2 * j}]")
            self._bind(f"m{j}", f"S[{2 * j + 1}]")
            if stage.crossed:
                self._bind(f"S{j}x", f"S[{2 * j + 1}:{2 * j - 1 if j else ''}:-1]")
            self._bind_pair(_target(j), f"T[{2 * j}:{2 * j + 2}]")
        if spec.loop is not None and spec.loop.hysteresis != 0.0:
            self._bind("last", self._constant(1.0))
        src.line(1, f"for {', '.join(self.arg_names)} in blocks:")
        if spec.loop is not None:
            src.line(2, "ups = np.empty(out.shape, dtype=bool)")
        src.line(2, "for i in range(n_steps):")
        return 3

    def end_step(self, src: _Source, depth: int) -> None:
        src.line(depth, "settle()")
        if self.cell.mismatch != 0.0:
            factors = (1.0 + 0.5 * self.cell.mismatch, 1.0 - 0.5 * self.cell.mismatch)
            rows = self._constant(factors * self._n_cells)
            src.line(depth, f"multiply(S, {rows}, S)")
        src.line(depth, "add(S, noise[i], S)")

    def end(self, src: _Source, spec: KernelSpec) -> None:
        """Insert the prologue; write a block's bit stream from ``ups``."""
        if spec.loop is not None:
            fs = spec.loop.full_scale
            src.line(2, f"copyto(out, {_lit(-fs)})")
            src.line(2, f"copyto(out, {_lit(fs)}, where=ups)")
        at = self._prologue_at
        src.lines[at:at] = ["    " + line for line in self._prologue]

    def _constant(self, value: float | tuple[float, ...] | _Rows) -> str:
        """Return the array holding ``value``, filled once per run.

        A float fills a row and a tuple one row per item; a stack's
        :class:`_Rows` fill a ``(k, 1, n_lanes)`` or ``(k, 2, n_lanes)``
        block, one value per stage (and half).
        """
        if isinstance(value, _Rows):
            stages = value.values
            shape = f"({len(stages)}, {len(stages[0])}, n_lanes)"
            fill = "[" + ", ".join(_column([_lit(v) for v in stage]) for stage in stages) + "]"
            lits = [_lit(v) for stage in stages for v in stage]
        elif isinstance(value, tuple):
            lits = [_lit(v) for v in value]
            shape, fill = f"({len(lits)}, n_lanes)", _column(lits)
        else:
            lits = [_lit(value)]
            shape, fill = "n_lanes", lits[0]
        if len(set(lits)) == 1:
            fill = lits[0]
        name = self._constants.get((shape, fill))
        if name is None:
            name = self._constants[(shape, fill)] = f"c{len(self._constants)}"
            self._bind(name, f"_filled({shape}, {fill})")
        return name

    def _shape(self, block: bool) -> str:
        """The shape of a value of the current assignment's stack size."""
        k = self._k
        if k is None:
            return "(2, n_lanes)" if block else "n_lanes"
        return f"({k}, 2, n_lanes)" if block else f"({k}, 1, n_lanes)"

    def _buffer(self, block: bool) -> str:
        """Return a scratch buffer free for the current assignment."""
        key = (block, self._k)
        pool = self._scratch.setdefault(key, [])
        in_use = self._in_use.get(key, 0)
        if in_use == len(pool):
            name = f"tmp{sum(map(len, self._scratch.values()))}"
            if block:
                shape = self._shape(True)
                self._bind_pair(_pair(name), f"np.empty({shape})", self._k is not None)
            else:
                self._bind(name, f"np.empty({self._shape(False)})")
            pool.append(name)
        self._in_use[key] = in_use + 1
        return pool[in_use]

    def declare(self, pair: _Pair) -> None:
        """Bind ``pair``'s buffer: a stage input (``U{j}``) is a view of ``U``."""
        if pair.block in self._bound:
            return
        rows = self._input_rows.get(pair.block)
        if rows is None:
            self._bind_pair(pair, "np.empty((2, n_lanes))")
            return
        if "U" not in self._bound:
            self._bind("U", f"np.empty(({2 * self._n_cells}, n_lanes))")
        self._bind_pair(pair, f"U[{rows}]")

    def stacks(self, members: tuple[_Member, ...]) -> list[_Stack]:
        """One stack over ``members`` when they stack, else one per stage."""
        if len(members) == 1 or not _stackable(members):
            return super().stacks(members)
        j0, k = members[0][0], len(members)
        name = f"{j0}_{j0 + k}"
        view = f"[{2 * j0}:{2 * (j0 + k)}].reshape({k}, 2, n_lanes)"
        target = _pair(f"T{name}")
        self._bind_pair(target, f"T{view}", stacked=True)
        state = _pair(f"S{name}x" if members[0][1].crossed else f"S{name}")
        self._bind(state.block, f"S{view}{'[:, ::-1]' if members[0][1].crossed else ''}")
        inputs = _pair(f"U{name}")
        self._bind(inputs.block, f"U{view}")
        rows = (f"i_cm{name}", f"i_sub{name}")
        self._stacked.update(dict.fromkeys((target.block, *rows), k))
        return [_Stack(members, target, state, inputs, rows)]

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
        # A stack's constants hold one value per stage, or its blocks
        # would broadcast them across the wrong axis.
        if isinstance(expr, float):
            value = (expr, expr) if block else (expr,)
            if self._k is not None:
                return self._constant(_Rows((value,) * self._k))
            return self._constant(value if block else expr)
        if isinstance(expr, _Rows):
            assert len(expr.values) == self._k, (expr.values, self._k)
            return self._constant(expr)
        if isinstance(expr, tuple):
            assert self._k is None, (expr, self._k)
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
        self._in_use = {}
        self._halves = {}
        block = isinstance(dest, _Pair)
        out = dest.block if isinstance(dest, _Pair) else dest
        self._k = self._stacked.get(out)
        if isinstance(dest, _Pair):
            self.declare(dest)
        elif "[" not in dest and dest not in self._bound:
            self._bind(dest, f"np.empty({self._shape(False)})")
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
        """One gather from a ``(k, 2)`` table: each target row's down, up.

        ``take`` with the boolean row ``up`` as column indices copies the
        up constant where it holds and the down constant elsewhere.
        """
        select = f"sel{self._selects}"
        self._selects += 1
        n_rows = sum(2 if isinstance(row[0], _Pair) else 1 for row in rows)
        self._bind(select, f"np.empty(({n_rows}, n_lanes))")
        table: list[tuple[float, float]] = []
        for target, if_up, if_down in rows:
            r = len(table)
            if isinstance(target, _Pair):
                self._bind_pair(target, f"{select}[{r}:{r + 2}]")
                table.extend(zip(if_down, if_up))
            else:
                self._bind(target, f"{select}[{r}]")
                table.append((if_down, if_up))
        levels = "[" + ", ".join(f"[{_lit(d)}, {_lit(u)}]" for d, u in table) + "]"
        self._bind(f"take_{select}", f"_filled(({n_rows}, 2), {levels}).take")
        src.line(depth, f"take_{select}(up, 1, {select}, 'wrap')")

    def store(
        self, src: _Source, depth: int, j: int, cell: CellSpec, target: _Pair
    ) -> None:
        """Nothing per stage: the walk wrote the targets into ``T{j}``."""
        assert target.block == f"T{j}", target.block


def _column(lits: Sequence[str]) -> str:
    """A fill literal with one row per value: ``[[a], [b], ...]``."""
    return "[" + ", ".join(f"[{v}]" for v in lits) + "]"


def lane_refusal(spec: KernelSpec) -> str | None:
    """Return why ``spec`` has no lane layout, or None when it has one.

    The lane layout stores every half with one store, which takes one
    cell's constants, and that store has no ``delta == 0.0`` shortcut,
    which is exact only while the front never yields ``-0.0``.
    """
    cell = _fused_cell(spec.all_stages)
    if cell is None:
        return "fused cells must share one electrical configuration"
    if not cell.front_never_negative_zero:
        return "the lane store needs an injection residual of +0.0 or more"
    return None


def lane_function(program: KernelProgram) -> Callable[..., Any] | None:
    """Return ``program``'s lane layout, compiling it on the first call.

    None when :func:`lane_refusal` refuses the spec.
    """
    if program.lane_fn is None:
        if lane_refusal(program.spec) is not None:
            return None
        cell = _fused_cell(program.spec.all_stages)
        assert cell is not None
        source, layout = kernel_source(program.spec, _LaneLayout(cell))
        namespace = {"np": np, "LaneStore": LaneStore, "_filled": _filled, "cell": cell}
        program.lane_args = tuple(layout.arg_names)
        program.lane_fn = _define(source, "lanes", program.spec.kind, namespace)
    return program.lane_fn
