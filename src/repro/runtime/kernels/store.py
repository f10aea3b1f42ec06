"""Elementwise batch kernel for the class-AB store pipeline.

One :func:`store_batch` call performs, for every element of a lane
array at once, exactly what
:meth:`repro.si.memory_cell.ClassABMemoryCell._store_half` performs
for one half-circuit current: translinear class-AB split, transmission
error, charge-injection residue, and the two-regime (slew + linear)
GGA settling law.

Bit-exactness is the design constraint, not an optimisation target:
every arithmetic expression below reproduces the scalar source
operation for operation (same association, same branch structure via
``np.where``), so a batch of N lanes returns the same 64-bit floats as
N scalar loops.  The only transcendental in the pipeline is ``exp``,
which the scalar path routes through ``np.exp`` for exactly this
reason (see :func:`repro.si.gga._exp`).

Most calls store no slewing element at all (every element takes the
scalar small-step branch), so the settling law checks that first and
then evaluates that branch alone: the NumPy dispatch per call, not the
arithmetic, is what a lane-layout period costs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.kernels.spec import CellSpec

__all__ = ["store_batch"]


def store_batch(
    previous: np.ndarray, target: np.ndarray, kernel: CellSpec
) -> np.ndarray:
    """Store ``target`` over ``previous`` elementwise; return the settled currents.

    Vectorized transliteration of ``_store_half``: both inputs are
    arrays of half-circuit currents of identical shape (typically
    ``(rows, lanes)`` with one row per fused half-circuit).  Slew events
    are not reported.  ``kernel`` is the cell's
    :class:`~repro.runtime.kernels.spec.CellSpec`: its store constants
    are computed with the scalar model's own expressions, so every
    element starts from identical 64-bit values.

    When no element slews, only the small-step branch is evaluated.
    Otherwise the untaken branches of the scalar ``if`` cascade are
    evaluated for every element and selected with ``np.where``; their
    arguments are clamped where an untaken branch could overflow
    (``exp`` of a large positive number), which cannot change any
    selected value.
    """
    # Class-AB translinear split: only the n-device current feeds the
    # error models.  Both branch expressions are well defined for every
    # input (root >= |half| + margin at these current scales) and never
    # negative, so the scalar clamp ``max(i_n, floor)`` is np.maximum.
    half = 0.5 * target
    root = np.sqrt(half * half + kernel.iq_squared)
    device_n = np.where(
        half >= 0.0, half + root, kernel.iq_squared / (root - half)
    )

    # Transmission error, then charge-injection residue, exactly in the
    # scalar order (apply, then +=).
    current = np.maximum(device_n, kernel.trans_floor)
    epsilon = kernel.trans_ratio * np.sqrt(kernel.trans_iq / current)
    value = target * (1.0 - epsilon)
    if kernel.inj_floor != kernel.trans_floor:
        current = np.maximum(device_n, kernel.inj_floor)
    value = value + kernel.inj_residual * np.sqrt(current / kernel.inj_iq)

    # Two-regime GGA settling.  The scalar delta == 0 shortcut needs no
    # special case here: it lands in the small-step branch with a zero
    # residual, reproducing settled == value exactly (the pipeline
    # guarantees value is never -0.0, so the sign of zero is safe).
    delta = value - previous + kernel.kick * value
    margin = np.maximum(1.0 - np.abs(value) / kernel.bias, kernel.margin_floor)
    magnitude = np.abs(delta)
    slewed = magnitude > kernel.bias
    # Tested per element: a NaN element compares False here, where a
    # NaN max() would hide a slewing element elsewhere in the array.
    if not slewed.any():
        # Only the small-step branch is selected; a / -b == -(a / b)
        # bitwise, so this is the cascade's ``small`` exactly.
        residual = delta * np.exp(margin / -kernel.tau_fraction)
    else:
        n_tau = margin / kernel.tau_fraction
        sign = np.where(delta > 0.0, 1.0, -1.0)
        small = delta * np.exp(-n_tau)
        slew_time = (magnitude - kernel.bias) / kernel.bias
        full = sign * (magnitude - kernel.bias * n_tau)
        # Clamp keeps exp() finite on elements where the full-slew
        # branch is the one selected; selected values are unaffected.
        partial = sign * kernel.bias * np.exp(-np.maximum(n_tau - slew_time, 0.0))
        residual = np.where(slewed, np.where(slew_time >= n_tau, full, partial), small)
    settled: np.ndarray = value - residual
    return settled
