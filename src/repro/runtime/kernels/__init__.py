"""Compiled kernel tier: per-design fused state-space loops.

Public surface:

* :func:`build_spec` / :class:`KernelSpec` -- lower a device into a
  frozen constant-folded spec, or raise :class:`KernelUnsupported`
  with a named reason; :func:`device_parts` returns its live cells,
  CMFF stages, quantizer and DAC in the same order.  Both lowered
  engines go through these two functions.
* :func:`store_batch` -- the vectorised memory-cell settling update the
  batch runners apply to a spec's cells.
* :func:`compile_spec` / :class:`KernelProgram` -- generate and cache
  the fused scalar loop for a spec.
* :func:`run_kernel` / :func:`kernel_refusal` -- execute a device's
  run through the compiled tier (byte-identical to ``force_scalar()``),
  or predict why it would refuse.
* :func:`state_matrices` -- the A/B/C/D linearisation of a spec for
  docs and analysis.
"""

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

__all__ = [
    "KernelProgram",
    "KernelSpec",
    "KernelUnsupported",
    "build_spec",
    "compile_spec",
    "device_parts",
    "jit_status",
    "kernel_refusal",
    "run_kernel",
    "state_matrices",
    "store_batch",
]
