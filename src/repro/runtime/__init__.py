"""Execution engines: compiled kernels, lane batches, shards, result cache.

The per-sample device loops in :mod:`repro.si` and
:mod:`repro.deltasigma` are exact but slow.  This package runs the
same devices bit-identically on faster rungs, all lowered through one
:class:`~repro.runtime.kernels.spec.KernelSpec`:

* :mod:`repro.runtime.kernels` -- ``build_spec`` lowers a device into
  its frozen spec (the one place that knows each device's shape), and
  one codegen walk compiles it into a scalar layout, which runs single
  runs, and a lane layout, which runs batches; the elementwise
  class-AB store pipeline (:func:`store_batch`) is the lane layout's
  fused store;
* :mod:`repro.runtime.engine` -- the single-run ladder every device
  ``run`` method calls: kernel, then the scalar loop, with
  :func:`force_scalar` as the parity oracle and
  :func:`consume_fallbacks` naming every refusal;
* :mod:`repro.runtime.batch` -- batch runners that lay many lanes out
  step-major and run them through the spec's lane layout on NumPy
  arrays, bit-identical to the scalar loop;
* :mod:`repro.runtime.executor` -- :class:`SweepExecutor`, sharding
  lanes across a ``ProcessPoolExecutor`` with chunking, per-task
  timeouts and deterministic ``SeedSequence.spawn`` seeding;
* :mod:`repro.runtime.cache` -- a keyed on-disk cache so repeated
  reports on unchanged configs skip recomputation;
* :mod:`repro.runtime.sweeps` -- the batched amplitude sweep behind
  ``repro sweep`` and ``repro report --jobs``;
* :mod:`repro.runtime.montecarlo` -- vectorized CMFF mismatch trials.

The determinism contract (see ``docs/RUNTIME.md``): for supported
configurations every rung reproduces the scalar path *bit for bit*, at
any ``--jobs`` value.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.runtime.batch import (
        BatchBiquadCascade,
        BatchChopper,
        BatchClassABCell,
        BatchDelayLine,
        BatchModulator1,
        BatchModulator2,
        BatchUnsupported,
        batch_runner_for,
        fast_forward_streams,
    )
    from repro.runtime.cache import ResultCache
    from repro.runtime.executor import ShardContext, SweepExecutor, SweepTimeoutError
    from repro.runtime.engine import consume_fallbacks, force_scalar, run_single
    from repro.runtime.kernels.store import store_batch
    from repro.runtime.lowering import (
        LOWERING_PROTOCOL,
        LoweredBase,
        PROTOCOL_BY_QUALNAME,
        lowering_refusal,
        overridden_hooks,
        probe_refusal,
        protocol_for,
    )
    from repro.runtime.montecarlo import (
        cmff_imbalance_draws,
        cmff_leakage_samples,
        cmff_rejection_samples,
    )
    from repro.runtime.sweeps import SweepSpec, run_sweep, sweep_spec_for_design

_EXPORTS = {
    "repro.runtime.batch": (
        "BatchBiquadCascade",
        "BatchChopper",
        "BatchClassABCell",
        "BatchDelayLine",
        "BatchModulator1",
        "BatchModulator2",
        "BatchUnsupported",
        "batch_runner_for",
        "fast_forward_streams",
    ),
    "repro.runtime.cache": ("ResultCache",),
    "repro.runtime.executor": ("ShardContext", "SweepExecutor", "SweepTimeoutError"),
    "repro.runtime.engine": ("consume_fallbacks", "force_scalar", "run_single"),
    "repro.runtime.kernels.store": ("store_batch",),
    "repro.runtime.lowering": (
        "LOWERING_PROTOCOL",
        "LoweredBase",
        "PROTOCOL_BY_QUALNAME",
        "lowering_refusal",
        "overridden_hooks",
        "probe_refusal",
        "protocol_for",
    ),
    "repro.runtime.montecarlo": (
        "cmff_imbalance_draws",
        "cmff_leakage_samples",
        "cmff_rejection_samples",
    ),
    "repro.runtime.sweeps": ("SweepSpec", "run_sweep", "sweep_spec_for_design"),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
