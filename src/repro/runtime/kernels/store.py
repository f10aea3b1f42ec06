"""Elementwise batch kernel for the class-AB store pipeline.

One call of a :class:`LaneStore` performs, for every element of a lane
block at once, exactly what
:meth:`repro.si.memory_cell.ClassABMemoryCell._store_half` performs
for one half-circuit current: translinear class-AB split, transmission
error, charge-injection residue, and the two-regime (slew + linear)
GGA settling law.  :func:`store_batch` is the one-shot entry point:
it runs a fresh store once over copies of its arguments.  The law's
front -- everything before settling, which reads only the target --
is one closure of its own, so :func:`store_front` runs it over a whole
input row for the scalar layout's prologue.

Bit-exactness is the design constraint, not an optimisation target:
every arithmetic operation below reproduces the scalar source
operation for operation (same association, same branch structure via
selects), so a batch of N lanes returns the same 64-bit floats as N
scalar loops.  The only transcendental in the pipeline is ``exp``,
which the scalar path routes through ``np.exp`` for exactly this
reason (see :func:`repro.si.gga._exp`).

What a lane-layout period costs is the NumPy dispatch per call, not
the arithmetic, so the store is *buffered* and *pre-bound*: it owns
its state and target blocks, every constant as an array filled once,
and every scratch array, and one closure built with the store runs the
fixed sequence of ufunc calls that write into those buffers and
allocate nothing.  A per-element select is a plain operation into
scratch and one masked copy (``np.putmask``), never a ufunc with
``where=``, which costs about twice as much.  The bitwise rules this
relies on:

* an array operand filled with a constant ``c`` rounds exactly as the
  literal ``c`` would (the same float64 operand, elementwise);
* ``out=`` changes no rounding: a ufunc writes the value it returns;
* each binary operation keeps the operand order the scalar source
  writes (``0.5 * target``, ``value - previous``);
* a reversed view changes no value (the lane layout reads crossed
  stages' state through one);
* a masked copy moves each selected value unchanged.

Most calls store no slewing element at all (every element takes the
scalar small-step branch), so the settling law counts slewing elements
first and then evaluates that branch alone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.kernels.spec import CellSpec

__all__ = ["LaneStore", "store_batch", "store_front"]


def _filled(shape: int | tuple[int, ...], value: float | list[Any]) -> np.ndarray:
    """Return a read-only array of ``shape`` filled with ``value`` (broadcast)."""
    array = np.full(shape, value)
    array.flags.writeable = False
    return array


class LaneStore:
    """The store law over one block of half-circuit currents, buffered.

    ``state`` holds the stored currents (zero at construction, the
    reset state) and ``target`` the currents to store next; ``settle``
    (or calling the store) settles ``target`` over ``state`` in place.
    ``kernel`` is the cell's
    :class:`~repro.runtime.kernels.spec.CellSpec`: its constants are
    computed with the scalar model's own expressions, so every element
    starts from identical 64-bit values.  Slew events are not reported.

    ``settle`` is bound once per store (:func:`_settle_law`), so a call
    unpacks nothing and looks nothing up: the lane layout calls it
    every period.  When no element slews, only the small-step branch is
    evaluated.  Otherwise the untaken branches of the scalar ``if``
    cascade are evaluated for every element and selected per element;
    their arguments are clamped where an untaken branch could overflow
    (``exp`` of a large positive number), which cannot change any
    selected value.  Both paths write only their own scratch arrays
    before they read them, so no call depends on an earlier one.
    """

    def __init__(self, kernel: CellSpec, shape: tuple[int, ...]) -> None:
        self.state, self.target, self.settle = _settle_law(kernel, shape)

    def __call__(self) -> None:
        """Store ``target`` over ``state`` in place."""
        self.settle()


def _front_law(
    kernel: CellSpec, target: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, Callable[[], None]]:
    """Bind the store front; return its value, margin and decay, and it.

    The front is the half of the store law that reads only ``target``:
    the class-AB split, the transmission error and the charge-injection
    residue give ``value``; from it follow the GGA drive ``margin`` and
    the small-step ``decay`` factor ``exp(-margin / tau)``.  Each call
    of the returned closure fills the three arrays in place.  Its
    constants and scratch arrays are locals of this scope, so the
    closure unpacks nothing.
    """
    shape = target.shape
    value, margin, decay = (np.empty(shape) for _ in range(3))
    (
        zero, half_c, one, iq_squared, trans_floor, trans_iq, trans_ratio,
        inj_floor, inj_iq, inj_residual, bias, margin_floor, minus_tau,
    ) = (
        _filled(shape, constant)
        for constant in (
            0.0,
            0.5,
            1.0,
            kernel.iq_squared,
            kernel.trans_floor,
            kernel.trans_iq,
            kernel.trans_ratio,
            kernel.inj_floor,
            kernel.inj_iq,
            kernel.inj_residual,
            kernel.bias,
            kernel.margin_floor,
            -kernel.tau_fraction,
        )
    )
    half, root, device_n, current, work = (np.empty(shape) for _ in range(5))
    nonneg = np.empty(shape, dtype=bool)
    distinct_floors = kernel.inj_floor != kernel.trans_floor
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    sqrt, exp, absolute, maximum = np.sqrt, np.exp, np.absolute, np.maximum
    greater_equal, putmask = np.greater_equal, np.putmask

    def front() -> None:
        """Fill ``value``, ``margin`` and ``decay`` from ``target``."""
        # Class-AB translinear split: only the n-device current feeds the
        # error models.  Both branch expressions are well defined for
        # every input (root >= |half| + margin at these current scales)
        # and never negative, so the scalar clamp ``max(i_n, floor)`` is
        # np.maximum.  device_n = half + root where half >= 0.0, else
        # iq_squared / (root - half): a plain add into scratch and one
        # masked copy, cheaper than a masked add.
        multiply(half_c, target, half)
        multiply(half, half, root)
        add(root, iq_squared, root)
        sqrt(root, root)
        subtract(root, half, device_n)
        divide(iq_squared, device_n, device_n)
        greater_equal(half, zero, nonneg)
        add(half, root, work)
        putmask(device_n, nonneg, work)

        # Transmission error, then charge-injection residue, exactly in
        # the scalar order (apply, then +=).
        maximum(device_n, trans_floor, out=current)
        divide(trans_iq, current, work)
        sqrt(work, work)
        multiply(trans_ratio, work, work)
        subtract(one, work, work)
        multiply(target, work, value)
        if distinct_floors:
            maximum(device_n, inj_floor, out=current)
        divide(current, inj_iq, work)
        sqrt(work, work)
        multiply(inj_residual, work, work)
        add(value, work, value)

        # margin = max(1.0 - |value| / bias, floor); the clamp is
        # np.maximum, as margin is never -0.0 and a NaN stays NaN.
        # decay = exp(margin / -tau): a / -b == -(a / b) bitwise, so it
        # is the scalar exp(-n_tau).
        absolute(value, work)
        divide(work, bias, work)
        subtract(one, work, work)
        maximum(work, margin_floor, out=margin)
        divide(margin, minus_tau, decay)
        exp(decay, decay)

    return value, margin, decay, front


def _settle_law(
    kernel: CellSpec, shape: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, Callable[[], None]]:
    """Allocate a store's blocks; return state, target and the bound store.

    Every constant, scratch array, flag and ufunc the store law uses is
    a local of this scope, so the returned closure and its slewing
    cascade read them without unpacking or attribute lookups.
    """
    state = np.zeros(shape)
    target = np.empty(shape)
    value, margin, decay, front = _front_law(kernel, target)
    zero, one, minus_one, kick, bias, tau = (
        _filled(shape, constant)
        for constant in (0.0, 1.0, -1.0, kernel.kick, kernel.bias, kernel.tau_fraction)
    )
    delta, magnitude, residual, work, n_tau, sign, slew_time, full, partial = (
        np.empty(shape) for _ in range(9)
    )
    chosen = np.empty(shape, dtype=bool)
    slewed = np.empty(shape, dtype=bool)
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    exp, absolute, maximum = np.exp, np.absolute, np.maximum
    negative, greater, greater_equal = np.negative, np.greater, np.greater_equal
    copyto, putmask, count_nonzero = np.copyto, np.putmask, np.count_nonzero

    def slewing_residual() -> None:
        """Fill ``residual`` from the full two-regime cascade, per element."""
        divide(margin, tau, n_tau)
        # sign = 1.0 where delta > 0.0, else -1.0
        greater(delta, zero, chosen)
        copyto(sign, minus_one)
        putmask(sign, chosen, one)
        # small = delta * exp(-n_tau)
        multiply(delta, decay, residual)
        # slew_time = (magnitude - bias) / bias
        subtract(magnitude, bias, slew_time)
        divide(slew_time, bias, slew_time)
        # full = sign * (magnitude - bias * n_tau)
        multiply(bias, n_tau, full)
        subtract(magnitude, full, full)
        multiply(sign, full, full)
        # partial = sign * bias * exp(-max(n_tau - slew_time, 0.0)); the
        # clamp keeps exp() finite where the full-slew branch is selected.
        subtract(n_tau, slew_time, partial)
        maximum(partial, zero, out=partial)
        negative(partial, partial)
        exp(partial, partial)
        multiply(sign, bias, work)
        multiply(work, partial, partial)
        # residual = where(slewed, where(slew_time >= n_tau, full, partial), small)
        greater_equal(slew_time, n_tau, chosen)
        putmask(partial, chosen, full)
        putmask(residual, slewed, partial)

    def settle() -> None:
        """Store ``target`` over ``state`` in place."""
        front()
        # Two-regime GGA settling.  The scalar delta == 0 shortcut needs
        # no special case here: it lands in the small-step branch with a
        # zero residual, reproducing settled == value exactly because
        # value is never -0.0 while the cell's injection residual is
        # +0.0 or more (CellSpec.front_never_negative_zero; the lane
        # layout refuses other cells).  delta = value - previous +
        # kick * value.
        subtract(value, state, delta)
        multiply(kick, value, work)
        add(delta, work, delta)
        absolute(delta, magnitude)
        greater(magnitude, bias, slewed)
        # Counted per element: a NaN element compares False here, where
        # a NaN max() would hide a slewing element elsewhere.
        if count_nonzero(slewed):
            slewing_residual()
        else:
            # Only the small-step branch is selected.
            multiply(delta, decay, residual)
        subtract(value, residual, state)

    return state, target, settle


def store_batch(
    previous: np.ndarray, target: np.ndarray, kernel: CellSpec
) -> np.ndarray:
    """Store ``target`` over ``previous`` elementwise; return the settled currents.

    Vectorized transliteration of ``_store_half``: both inputs are
    arrays of half-circuit currents of identical shape (typically
    ``(rows, lanes)`` with one row per fused half-circuit); neither is
    modified.  One call of a fresh :class:`LaneStore`, the store the
    lane layout runs every period.
    """
    store = LaneStore(kernel, np.shape(previous))
    np.copyto(store.state, previous)
    np.copyto(store.target, target)
    store()
    return store.state


def store_front(kernel: CellSpec, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return the store front of ``target``, elementwise: its value and decay.

    The store law's input-only half (:func:`_front_law`) over fresh
    arrays: bit for bit the scalar ``value`` of each half-circuit
    current and its small-step factor ``exp(-margin / tau)``.  The
    scalar layout's prologue calls it on an input row.
    """
    value, _, decay, front = _front_law(kernel, np.asarray(target, dtype=float))
    front()
    return value, decay
