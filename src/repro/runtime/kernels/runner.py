"""Execute device runs through the compiled kernel tier.

The runner is the glue between a *live* device instance and its
compiled :class:`~repro.runtime.kernels.codegen.KernelProgram`:

1. lower the device to a :class:`KernelSpec` (cached compile),
2. drain every random stream the scalar loop would touch
   (:func:`~repro.runtime.kernels.spec.drawn_streams`: the cell noise
   feeds, the quantiser metastability/dither streams, the DAC
   reference-noise stream) by exactly ``n`` draws from the device's
   **own** stream objects (chunked ``take`` is bit-identical to ``n``
   scalar ``next()`` calls, and independent streams make draw order
   across streams irrelevant),
3. prescale the inputs exactly as the scalar loop's prologue does
   (``0.0 + 0.5 * x`` half-splitting, chopper ``+/-1`` sign products --
   both elementwise-identical in NumPy and scalar code), and run the
   program's prologue over them: the input-only work the codegen walk
   hoisted out of the loop, one NumPy row per hoisted value,
4. run the fused loop (numba-JIT when the bitwise probe passed, over
   the whole run; plain Python otherwise, one call per block of
   :data:`BLOCK_STEPS` periods, each taking the state the last returned,
   so only one block's rows are ever Python lists),
5. write state back (stored samples, step/slew counters, quantiser
   hysteresis) and flush probe buffers through ``observe_array``,

so a kernel run is indistinguishable -- output bytes, device state,
stream positions, probe statistics -- from the same run under
:func:`repro.runtime.engine.force_scalar`.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.runtime.kernels.codegen import KernelProgram, compile_spec
from repro.runtime.kernels.jit import jit_compile, jit_status
from repro.runtime.kernels.spec import (
    KernelUnsupported,
    build_spec,
    device_parts,
    drawn_streams,
)
from repro.si.differential import DifferentialSample

__all__ = ["BLOCK_STEPS", "kernel_refusal", "run_kernel"]

#: Clock periods per block of a compiled run.  The scalar layout's
#: pure-Python loop reads one block of rows as lists, and the lane
#: layout one block of step-major input, noise and output, so a run's
#: working set is its whole-run arrays plus one block.  On a 33-lane,
#: 16,640-period run, 4096-period blocks traced 9.8 MB more than 1024
#: and 256-period ones 2.5 MB less, for four times the block switches;
#: the refills cost about 2% of the run at each size.
BLOCK_STEPS = 1024


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


def _stimulus(
    program: KernelProgram, data: np.ndarray, signs: np.ndarray | None
) -> dict[str, np.ndarray]:
    """Return a program's stimulus rows for ``data``: ``xa``/``xb`` or ``xs``.

    Elementwise along the time axis, so any slice of ``data`` with the
    matching slice of the chopper ``signs`` gives the same slice of rows.
    """
    if program.stimulus == ("xs",):
        return {"xs": data}
    xa, xb = _half_split(data if signs is None else signs * data)
    return {"xa": xa, "xb": xb}


def _probe_owners(program: KernelProgram, stages: Sequence[tuple[Any, Any]]) -> list[Any]:
    """Return the probe each of ``program``'s probe buffers feeds."""
    return [
        (stages[index][1] if tag == "cmff" else stages[index][0])._probe
        for index, tag in program.probe_slots
    ]


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


def _halves(stream: Any, count: int) -> np.ndarray:
    """Take ``count`` noise draws from ``stream``, halved in place."""
    draws: np.ndarray = stream.take(count)
    return np.multiply(0.5, draws, out=draws)


def _run_blocks(
    program: KernelProgram,
    arrays: dict[str, np.ndarray],
    scalars: dict[str, Any],
    written: list[str],
    n: int,
) -> tuple[tuple[Any, ...], dict[str, np.ndarray]]:
    """Run the scalar layout in pure Python, one block of periods per call.

    Each call reads one block of ``arrays``' rows as lists, fills one
    block of each ``written`` array, and hands the state it returns to
    the next call: the same operations on the same values as one call
    over all ``n`` periods.  Returns the final state with the summed
    slew counts, and the ``written`` arrays.
    """
    names = program.arg_names
    state = {name: scalars[name] for name in program.state_names}
    slews = [0] * len(program.slew_names)
    filled = {name: np.zeros(n) for name in written}
    for start in range(0, n, BLOCK_STEPS):
        stop = min(start + BLOCK_STEPS, n)
        lists: dict[str, Any] = {
            name: arrays[name][start:stop].tolist()
            for name in names
            if name in arrays and name not in written
        }
        lists.update((name, [0.0] * (stop - start)) for name in written)
        lists.update(state, n_steps=stop - start)
        results = program.fn(*[lists[name] for name in names])
        state = dict(zip(program.state_names, results))
        slews = [a + b for a, b in zip(slews, results[len(state) :])]
        for name, array in filled.items():
            array[start:stop] = lists[name]
    return (*state.values(), *slews), filled


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
    program = compile_spec(build_spec(device))
    stages, quantizer, _ = device_parts(device)
    n = data.shape[0]

    signs = _chopper_signs(n) if program.spec.kind == "chopper" else None
    # Elementwise IEEE arithmetic on every input, as the loop would do:
    # the prologue returns the rows and probe buffers the loop reads.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        arrays = program.prologue(**_stimulus(program, data, signs))
    scalars: dict[str, Any] = {"n_steps": n}

    noise, loop_streams = drawn_streams(device)
    for j, stream in enumerate(noise):
        arrays[f"hn{j}"] = _halves(stream, n)
    for name, stream in loop_streams.items():
        arrays[name] = stream.take(n)

    probe_owners = _probe_owners(program, stages)
    # What the loop writes: the output, and every probe the prologue
    # did not fill.
    written = [
        name
        for name in ["out", *(f"pb{slot}" for slot in range(len(probe_owners)))]
        if name in program.arg_names
    ]
    for j, (cell, _) in enumerate(stages):
        scalars[f"p{j}"] = cell._stored.pos
        scalars[f"m{j}"] = cell._stored.neg
    if quantizer is not None:
        scalars["last"] = quantizer._last_decision

    _ensure_jit(program)
    results: tuple[Any, ...] | None = None
    if program.jit_fn is not None:
        outputs = {name: np.zeros(n) for name in written}
        args = {**scalars, **arrays, **outputs}
        try:
            results = program.jit_fn(*[args[name] for name in program.arg_names])
        except Exception as error:  # numba typing/lowering failure
            program.jit_fn = None
            program.jit_state = (
                f"jit execution failed: {type(error).__name__}"
            )
            results = None
    if results is None:
        results, outputs = _run_blocks(program, arrays, scalars, written, n)
    arrays.update(outputs)
    out = arrays["out"]

    values = dict(
        zip(program.state_names + program.slew_names, results, strict=True)
    )
    for j, (cell, _) in enumerate(stages):
        cell._stored = DifferentialSample(
            float(values[f"p{j}"]), float(values[f"m{j}"])
        )
        cell._steps += n
        cell._slew_events += int(values[f"slews{j}"])
    if quantizer is not None:
        quantizer._last_decision = int(values["last"])
    if n > 0:
        for slot, owner in enumerate(probe_owners):
            owner.observe_array(arrays[f"pb{slot}"])
    if signs is not None:
        return signs * out
    return out
