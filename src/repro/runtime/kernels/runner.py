"""Execute device runs through the compiled kernel tier.

The runner is the glue between a *live* device instance and its
compiled :class:`~repro.runtime.kernels.codegen.KernelProgram`:

1. lower the device to a :class:`KernelSpec` (cached compile),
2. drain every random stream the scalar loop would touch -- the cell
   noise feeds, the quantiser metastability/dither streams, the DAC
   reference-noise stream -- by exactly ``n`` draws from the device's
   **own** stream objects (chunked ``take`` is bit-identical to ``n``
   scalar ``next()`` calls, and independent streams make draw order
   across streams irrelevant),
3. prescale the inputs exactly as the scalar loop's prologue does
   (``0.0 + 0.5 * x`` half-splitting, chopper ``+/-1`` sign products --
   both elementwise-identical in NumPy and scalar code),
4. run the fused loop (numba-JIT when the bitwise probe passed, plain
   Python otherwise),
5. write state back (stored samples, step/slew counters, quantiser
   hysteresis) and flush probe buffers through ``observe_array``,

so a kernel run is indistinguishable -- output bytes, device state,
stream positions, probe statistics -- from the same run under
:func:`repro.runtime.engine.force_scalar`.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.runtime.kernels.codegen import KernelProgram, compile_spec
from repro.runtime.kernels.jit import jit_compile, jit_status
from repro.runtime.kernels.spec import KernelUnsupported, build_spec, device_parts
from repro.si.differential import DifferentialSample

__all__ = ["kernel_refusal", "run_kernel"]


def kernel_refusal(device: object) -> str | None:
    """Predict why ``device`` would refuse the kernel tier (None = runs)."""
    try:
        build_spec(device)
    except KernelUnsupported as error:
        return str(error)
    return None


def _half_split(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise twin of the scalar ``0.0 +/- 0.5 * x`` prologue."""
    half = 0.5 * data
    return 0.0 + half, 0.0 - half


def _chopper_signs(n: int) -> np.ndarray:
    signs = np.ones(n)
    signs[1::2] = -1.0
    return signs


def _ensure_jit(program: KernelProgram) -> None:
    if program.jit_state != "untried":
        return
    compiled = jit_compile(program.fn)
    if compiled is None:
        program.jit_fn = None
        program.jit_state = jit_status()
        if program.jit_state == "active":  # factory ok, this fn refused
            program.jit_state = "jit compile refused for this kernel"
    else:
        program.jit_fn = compiled
        program.jit_state = "active"


def run_kernel(device: object, data: np.ndarray) -> np.ndarray:
    """Run ``device`` over 1-D ``data`` on its compiled kernel.

    Byte-identical to the same run under ``force_scalar()`` on the same
    device instance: outputs, device state, stream positions, and probe
    statistics all match.  Raises :class:`KernelUnsupported` when the
    device has no kernel lowering or ``data`` is not 1-D.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 1:
        raise KernelUnsupported("input is not 1-D")
    spec = build_spec(device)
    program = compile_spec(spec)
    stages, quantizer, dac = device_parts(device)
    n = data.shape[0]
    loop = spec.loop

    arrays: dict[str, np.ndarray] = {}
    scalars: dict[str, Any] = {"n_steps": n}

    signs: np.ndarray | None = None
    if spec.kind in ("cell", "delay", "mod2"):
        arrays["xa"], arrays["xb"] = _half_split(data)
    elif spec.kind == "chopper":
        signs = _chopper_signs(n)
        arrays["xa"], arrays["xb"] = _half_split(signs * data)
    else:
        arrays["xs"] = data

    out = np.zeros(n)
    arrays["out"] = out

    for j, (cell, _) in enumerate(stages):
        arrays[f"hn{j}"] = 0.5 * cell._noise.take(n)
    if loop is not None:
        assert quantizer is not None and dac is not None
        if loop.band > 0.0:
            arrays["meta"] = np.asarray(quantizer._stream.take(n))
        if loop.dither_rms > 0.0:
            arrays["dith"] = np.asarray(quantizer._dither.take(n))
        if loop.dac_rms > 0.0:
            arrays["dacn"] = np.asarray(dac._stream.take(n))

    probe_owners: list[Any] = []
    for slot, (stage_index, tag) in enumerate(program.probe_slots):
        cell, cmff = stages[stage_index]
        owner = cmff._probe if tag == "cmff" else cell._probe
        probe_owners.append(owner)
        arrays[f"pb{slot}"] = np.zeros(n)

    for j, (cell, _) in enumerate(stages):
        scalars[f"p{j}"] = cell._stored.pos
        scalars[f"m{j}"] = cell._stored.neg
    if loop is not None:
        scalars["last"] = quantizer._last_decision

    _ensure_jit(program)
    results: tuple[Any, ...] | None = None
    if program.jit_fn is not None:
        args = [
            arrays[name] if name in arrays else scalars[name]
            for name in program.arg_names
        ]
        try:
            results = program.jit_fn(*args)
        except Exception as error:  # numba typing/lowering failure
            program.jit_fn = None
            program.jit_state = (
                f"jit execution failed: {type(error).__name__}"
            )
            results = None
    if results is None:
        lists = {name: value.tolist() for name, value in arrays.items()}
        py_out: list[float] = [0.0] * n
        lists["out"] = py_out
        py_probes: dict[str, list[float]] = {}
        for slot in range(len(program.probe_slots)):
            buf: list[float] = [0.0] * n
            lists[f"pb{slot}"] = buf
            py_probes[f"pb{slot}"] = buf
        args = [
            lists[name] if name in lists else scalars[name]
            for name in program.arg_names
        ]
        results = program.fn(*args)
        out = np.array(py_out)
        for slot_name, buf in py_probes.items():
            arrays[slot_name] = np.array(buf)

    values = dict(
        zip(program.state_names + program.slew_names, results, strict=True)
    )
    for j, (cell, _) in enumerate(stages):
        cell._stored = DifferentialSample(
            float(values[f"p{j}"]), float(values[f"m{j}"])
        )
        cell._steps += n
        cell._slew_events += int(values[f"slews{j}"])
    if loop is not None:
        quantizer._last_decision = int(values["last"])
    if n > 0:
        for slot, owner in enumerate(probe_owners):
            if owner is not None:
                owner.observe_array(arrays[f"pb{slot}"])
    if signs is not None:
        return signs * out
    return out
