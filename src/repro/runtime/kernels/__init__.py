"""Compiled kernel tier: per-design fused state-space loops.

Public surface:

* :func:`build_spec` / :class:`KernelSpec` -- lower a device into a
  frozen constant-folded spec, or raise :class:`KernelUnsupported`
  with a named reason; :func:`device_parts` returns its live cells,
  CMFF stages, quantizer and DAC in the same order.  Both lowered
  engines go through these two functions.
* :func:`compile_spec` / :class:`KernelProgram` -- generate and cache
  both layouts of a spec's fused loop: the scalar ``fn`` single runs
  use and the lane-major ``lane_fn`` the batch runners call.
* :func:`store_batch` -- the vectorised memory-cell settling update;
  the lane layout stores every cell of every lane with one call per
  period.
* :func:`run_kernel` / :func:`kernel_refusal` -- execute a device's
  run through the compiled tier (byte-identical to ``force_scalar()``),
  or predict why it would refuse.
* :func:`state_matrices` -- the A/B/C/D linearisation of a spec for
  docs and analysis.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.runtime.kernels.codegen import KernelProgram, compile_spec
    from repro.runtime.kernels.jit import jit_status
    from repro.runtime.kernels.runner import kernel_refusal, run_kernel
    from repro.runtime.kernels.spec import (
        KernelSpec,
        KernelUnsupported,
        build_spec,
        device_parts,
        state_matrices,
    )
    from repro.runtime.kernels.store import store_batch

_EXPORTS = {
    "repro.runtime.kernels.codegen": ("KernelProgram", "compile_spec"),
    "repro.runtime.kernels.jit": ("jit_status",),
    "repro.runtime.kernels.runner": ("kernel_refusal", "run_kernel"),
    "repro.runtime.kernels.spec": (
        "KernelSpec",
        "KernelUnsupported",
        "build_spec",
        "device_parts",
        "state_matrices",
    ),
    "repro.runtime.kernels.store": ("store_batch",),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
