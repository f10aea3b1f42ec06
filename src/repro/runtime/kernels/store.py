"""Elementwise batch kernel for the class-AB store pipeline.

One call of a :class:`LaneStore` performs, for every element of a lane
block at once, exactly what
:meth:`repro.si.memory_cell.ClassABMemoryCell._store_half` performs
for one half-circuit current: translinear class-AB split, transmission
error, charge-injection residue, and the two-regime (slew + linear)
GGA settling law.  :func:`store_batch` is the one-shot entry point:
it runs a fresh store once over copies of its arguments.

Bit-exactness is the design constraint, not an optimisation target:
every arithmetic operation below reproduces the scalar source
operation for operation (same association, same branch structure via
selects), so a batch of N lanes returns the same 64-bit floats as N
scalar loops.  The only transcendental in the pipeline is ``exp``,
which the scalar path routes through ``np.exp`` for exactly this
reason (see :func:`repro.si.gga._exp`).

What a lane-layout period costs is the NumPy dispatch per call, not
the arithmetic, so the store is *buffered*: it owns its state and
target blocks, every constant as an array filled once, and every
scratch array, and each call is a fixed sequence of ufunc calls that
write into those buffers and allocate nothing.  The bitwise rules this
relies on:

* an array operand filled with a constant ``c`` rounds exactly as the
  literal ``c`` would (the same float64 operand, elementwise);
* ``out=`` changes no rounding: a ufunc writes the value it returns;
* each binary operation keeps the operand order the scalar source
  writes (``0.5 * target``, ``value - previous``);
* a reversed view changes no value (the lane layout reads crossed
  stages' state through one).

Most calls store no slewing element at all (every element takes the
scalar small-step branch), so the settling law counts slewing elements
first and then evaluates that branch alone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.kernels.spec import CellSpec

__all__ = ["LaneStore", "store_batch"]


def _filled(
    shape: int | tuple[int, ...], value: float | list[list[float]]
) -> np.ndarray:
    """Return a read-only array of ``shape`` filled with ``value`` (broadcast)."""
    array = np.full(shape, value)
    array.flags.writeable = False
    return array


class LaneStore:
    """The store law over one block of half-circuit currents, buffered.

    ``state`` holds the stored currents (zero at construction, the
    reset state) and ``target`` the currents to store next; calling the
    store settles ``target`` over ``state`` in place.  ``kernel`` is the
    cell's :class:`~repro.runtime.kernels.spec.CellSpec`: its constants
    are computed with the scalar model's own expressions, so every
    element starts from identical 64-bit values.  Slew events are not
    reported.

    When no element slews, only the small-step branch is evaluated.
    Otherwise the untaken branches of the scalar ``if`` cascade are
    evaluated for every element and selected per element; their
    arguments are clamped where an untaken branch could overflow
    (``exp`` of a large positive number), which cannot change any
    selected value.  Both paths write only their own scratch arrays
    before they read them, so no call depends on an earlier one.
    """

    def __init__(self, kernel: CellSpec, shape: tuple[int, ...]) -> None:
        self.state = np.zeros(shape)
        self.target = np.empty(shape)
        self._distinct_floors = kernel.inj_floor != kernel.trans_floor
        self._constants = tuple(
            _filled(shape, value)
            for value in (
                0.0,
                0.5,
                1.0,
                -1.0,
                kernel.iq_squared,
                kernel.trans_floor,
                kernel.trans_iq,
                kernel.trans_ratio,
                kernel.inj_floor,
                kernel.inj_iq,
                kernel.inj_residual,
                kernel.kick,
                kernel.bias,
                kernel.margin_floor,
                kernel.tau_fraction,
                -kernel.tau_fraction,
            )
        )
        self._scratch = tuple(np.empty(shape) for _ in range(15))
        self._flags = (np.empty(shape, dtype=bool), np.empty(shape, dtype=bool))

    def __call__(self) -> None:
        """Store ``target`` over ``state`` in place."""
        (
            zero, half_c, one, _, iq_squared, trans_floor, trans_iq, trans_ratio,
            inj_floor, inj_iq, inj_residual, kick, bias, margin_floor, _, minus_tau,
        ) = self._constants
        (
            half, root, device_n, current, value, delta, margin, magnitude,
            residual, work, *_,
        ) = self._scratch
        nonneg, slewed = self._flags
        state, target = self.state, self.target
        add, subtract, multiply, divide, sqrt = (
            np.add, np.subtract, np.multiply, np.divide, np.sqrt
        )

        # Class-AB translinear split: only the n-device current feeds the
        # error models.  Both branch expressions are well defined for
        # every input (root >= |half| + margin at these current scales)
        # and never negative, so the scalar clamp ``max(i_n, floor)`` is
        # np.maximum.  device_n = half + root where half >= 0.0, else
        # iq_squared / (root - half).
        multiply(half_c, target, half)
        multiply(half, half, root)
        add(root, iq_squared, root)
        sqrt(root, root)
        subtract(root, half, device_n)
        divide(iq_squared, device_n, device_n)
        np.greater_equal(half, zero, nonneg)
        add(half, root, device_n, where=nonneg)

        # Transmission error, then charge-injection residue, exactly in
        # the scalar order (apply, then +=).
        np.maximum(device_n, trans_floor, out=current)
        divide(trans_iq, current, work)
        sqrt(work, work)
        multiply(trans_ratio, work, work)
        subtract(one, work, work)
        multiply(target, work, value)
        if self._distinct_floors:
            np.maximum(device_n, inj_floor, out=current)
        divide(current, inj_iq, work)
        sqrt(work, work)
        multiply(inj_residual, work, work)
        add(value, work, value)

        # Two-regime GGA settling.  The scalar delta == 0 shortcut needs
        # no special case here: it lands in the small-step branch with a
        # zero residual, reproducing settled == value exactly (the
        # pipeline guarantees value is never -0.0, so the sign of zero is
        # safe).  delta = value - previous + kick * value.
        subtract(value, state, delta)
        multiply(kick, value, work)
        add(delta, work, delta)
        np.absolute(value, work)
        divide(work, bias, work)
        subtract(one, work, work)
        np.maximum(work, margin_floor, out=margin)
        np.absolute(delta, magnitude)
        np.greater(magnitude, bias, slewed)
        # Counted per element: a NaN element compares False here, where
        # a NaN max() would hide a slewing element elsewhere.
        if np.count_nonzero(slewed):
            self._slewing_residual()
        else:
            # Only the small-step branch is selected; a / -b == -(a / b)
            # bitwise, so this is the cascade's ``small`` exactly.
            divide(margin, minus_tau, residual)
            np.exp(residual, residual)
            multiply(delta, residual, residual)
        subtract(value, residual, state)

    def _slewing_residual(self) -> None:
        """Fill ``residual`` from the full two-regime cascade, per element."""
        (
            zero, _, one, minus_one, _, _, _, _,
            _, _, _, _, bias, _, tau, _,
        ) = self._constants
        (
            _, _, _, _, _, delta, margin, magnitude, residual, work,
            n_tau, sign, slew_time, full, partial,
        ) = self._scratch
        chosen, slewed = self._flags
        subtract, multiply, divide = np.subtract, np.multiply, np.divide

        divide(margin, tau, n_tau)
        # sign = 1.0 where delta > 0.0, else -1.0
        np.greater(delta, zero, chosen)
        np.copyto(sign, minus_one)
        np.copyto(sign, one, where=chosen)
        # small = delta * exp(-n_tau)
        np.negative(n_tau, residual)
        np.exp(residual, residual)
        multiply(delta, residual, residual)
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
        np.maximum(partial, zero, out=partial)
        np.negative(partial, partial)
        np.exp(partial, partial)
        multiply(sign, bias, work)
        multiply(work, partial, partial)
        # residual = where(slewed, where(slew_time >= n_tau, full, partial), small)
        np.greater_equal(slew_time, n_tau, chosen)
        np.copyto(partial, full, where=chosen)
        np.copyto(residual, partial, where=slewed)


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
