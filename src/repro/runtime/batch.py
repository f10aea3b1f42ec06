"""Batch runners: many lanes of one kernel spec, lane-major on NumPy.

A *batch runner* simulates ``n_lanes`` independent runs of one device
side by side.  :func:`batch_runner_for` lowers the device through
:func:`~repro.runtime.kernels.spec.build_spec` and
:func:`~repro.runtime.kernels.codegen.compile_spec` -- the spec and the
program the compiled kernel tier runs, so both engines refuse the same
devices with the same messages -- and the runner calls the program's
*lane layout*: the function the one codegen walk emits with every
variable a row of ``n_lanes`` floats, every pos/neg pair a
``(2, n_lanes)`` block, and one fused
:class:`~repro.runtime.kernels.store.LaneStore` call per clock period.
This module only lays the data out and feeds the probes; the wiring of
each design lives in the spec and the walk.

Lane semantics reproduce the amplitude-sweep convention of
:func:`repro.analysis.sweeps.run_amplitude_sweep`: one device object
processes the lanes *sequentially*, with :meth:`reset` between lanes.
``reset`` zeroes the loop state but keeps the random streams running,
so :meth:`run <_LaneRunner.run>` drains ``n_lanes * n_steps`` values
from each stream :func:`~repro.runtime.kernels.spec.drawn_streams`
names and slices them lane-major: lane ``k`` sees exactly the draws the
``k``-th sequential scalar run would, which is what makes the batch
output bit-identical to the scalar loop.  A shard that starts at lane
``k`` first advances the streams with :func:`fast_forward_streams`.

Attached :class:`~repro.telemetry.probes.SignalProbe`\\ s are fed
lane-major through ``observe_array`` after the run.  Building a runner
has no side effect: every refusal raises :class:`BatchUnsupported`
there, and the streams are drained only by ``run``, after its shape
check.  Callers fall back to single runs lane by lane: the compiled
kernel when the device lowers there, else the scalar loop (see
:func:`repro.runtime.engine.run_lanes`).
"""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np

from repro.runtime.kernels.codegen import KernelProgram, compile_spec
from repro.runtime.kernels.runner import (
    BLOCK_STEPS,
    _chopper_signs,
    _halves,
    _probe_owners,
    _stimulus,
)
from repro.runtime.kernels.spec import (
    KernelUnsupported,
    build_spec,
    device_parts,
    drawn_streams,
)

__all__ = [
    "BatchUnsupported",
    "BatchClassABCell",
    "BatchDelayLine",
    "BatchBiquadCascade",
    "BatchModulator1",
    "BatchModulator2",
    "BatchChopper",
    "batch_runner_for",
    "fast_forward_streams",
]


class BatchUnsupported(Exception):
    """The device configuration has no bit-exact batch lowering."""


def _feed_loop_probes(
    modulator: object, stimuli: np.ndarray, output: np.ndarray
) -> None:
    """Feed a modulator's top-level ``input``/``bitstream`` probes.

    The scalar ``run()`` telemetry block observes the stimulus and the
    reconstructed bit stream once per run; lane ``k`` of a batch is run
    ``k`` of the scalar sweep, so feeding whole lanes in lane order
    reproduces the scalar probe state exactly.
    """
    session = getattr(modulator, "_telemetry", None)
    if session is None:
        return
    name = modulator._telemetry_name  # type: ignore[attr-defined]
    full_scale = modulator.full_scale  # type: ignore[attr-defined]
    input_probe = session.probe(f"{name}.input", full_scale=full_scale)
    bitstream_probe = session.probe(f"{name}.bitstream", full_scale=full_scale)
    for lane in range(stimuli.shape[0]):
        input_probe.observe_array(stimuli[lane])
        bitstream_probe.observe_array(output[lane])


def _blocks(
    program: KernelProgram,
    data: np.ndarray,
    halves: list[np.ndarray],
    draws: dict[str, np.ndarray],
    signs: np.ndarray | None,
    probes: list[np.ndarray],
) -> tuple[np.ndarray, Iterator[tuple[Any, ...]]]:
    """Return the run's lane-major output and the blocks that fill it.

    The blocks are tuples of ``program.lane_args``.  ``data``, the noise
    ``halves`` and the loop stream ``draws`` are whole and lane-major;
    each block copies its periods of them into step-major buffers of
    :data:`BLOCK_STEPS` periods, reused from block to block: the input
    (through the scalar prologue's elementwise half split, chopped by
    the absolute step's sign), ``+h``/``-h`` noise rows and the streams.
    The ``probes`` are whole step-major buffers the blocks view.  When
    the lane layout asks for the next block, the last one has run, and
    its output goes into the lane-major result.
    """
    n_lanes, n_steps = data.shape
    result = np.empty((n_lanes, n_steps))
    size = min(BLOCK_STEPS, n_steps)
    paired = program.stimulus == ("xa", "xb")
    buffers = {
        "x" if paired else "xs": np.empty((size, 2, n_lanes) if paired else (size, n_lanes)),
        "out": np.empty((size, n_lanes)),
        "noise": np.empty((size, 2 * len(halves), n_lanes)),
        **{name: np.empty((size, n_lanes)) for name in draws},
    }

    def feed() -> Iterator[tuple[Any, ...]]:
        for start in range(0, n_steps, BLOCK_STEPS):
            stop = min(start + BLOCK_STEPS, n_steps)
            block: dict[str, Any] = {name: rows[: stop - start] for name, rows in buffers.items()}
            chop = None if signs is None else signs[start:stop]
            stimulus = _stimulus(program, data[:, start:stop], chop)
            if paired:
                block["x"][:, 0] = stimulus["xa"].T
                block["x"][:, 1] = stimulus["xb"].T
            else:
                block["xs"][...] = stimulus["xs"].T
            noise = block["noise"]
            for j, half in enumerate(halves):
                noise[:, 2 * j] = half[:, start:stop].T
                np.negative(noise[:, 2 * j], out=noise[:, 2 * j + 1])
            for name, lane_major in draws.items():
                block[name][...] = lane_major[:, start:stop].T
            block["n_steps"] = stop - start
            block.update((f"pb{slot}", probe[start:stop]) for slot, probe in enumerate(probes))
            yield tuple(block[name] for name in program.lane_args)
            if chop is None:
                result[:, start:stop] = block["out"].T
            else:
                np.multiply(chop, block["out"].T, out=result[:, start:stop])

    return result, feed()


class _LaneRunner:
    """Run the lane layout of one device's compiled program."""

    def __init__(
        self, device: object, program: KernelProgram, n_lanes: int, n_steps: int
    ) -> None:
        self.n_lanes = n_lanes
        self.n_steps = n_steps
        self._device = device
        self._program = program

    def run(self, stimuli: np.ndarray) -> np.ndarray:
        """Run every lane; returns the device outputs (lanes, steps)."""
        n_lanes, n_steps = self.n_lanes, self.n_steps
        data = np.asarray(stimuli, dtype=float)
        if data.shape != (n_lanes, n_steps):
            raise ValueError(
                f"stimuli must have shape ({n_lanes}, {n_steps}), got {data.shape}"
            )
        program = self._program
        noise, loop_streams = drawn_streams(self._device)
        # Lane k reads draws [k * n_steps, (k + 1) * n_steps) of each stream.
        halves = [_halves(stream, n_lanes * n_steps).reshape(n_lanes, n_steps) for stream in noise]
        draws = {
            name: stream.take(n_lanes * n_steps).reshape(n_lanes, n_steps)
            for name, stream in loop_streams.items()
        }
        signs = _chopper_signs(n_steps) if program.spec.kind == "chopper" else None
        owners = _probe_owners(program, device_parts(self._device)[0])
        probes = [np.empty((n_steps, n_lanes)) for _ in owners]
        result, blocks = _blocks(program, data, halves, draws, signs, probes)

        assert program.lane_fn is not None
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            program.lane_fn(n_lanes, blocks)
        # Lane-major, as a scalar device reused lane after lane observes:
        # counts and extrema are exact, mean and RMS agree to
        # summation-order rounding.
        for owner, probe in zip(owners, probes):
            owner.observe_array(np.ascontiguousarray(probe.T).reshape(-1))
        if program.spec.loop is not None:
            _feed_loop_probes(self._device, data, result)
        return result


# perfbench/tracer.py wraps ``run`` in each runner class's own __dict__.
class BatchClassABCell(_LaneRunner):
    """Lanes of :class:`~repro.si.memory_cell.ClassABMemoryCell` runs."""

    run = _LaneRunner.run


class BatchDelayLine(_LaneRunner):
    """Lanes of :class:`~repro.si.delay_line.DelayLine` runs."""

    run = _LaneRunner.run


class BatchBiquadCascade(_LaneRunner):
    """Lanes of :class:`~repro.si.cascade.BiquadCascade` band-pass runs."""

    run = _LaneRunner.run


class BatchModulator1(_LaneRunner):
    """Lanes of first-order loop (:class:`SIModulator1`) runs."""

    run = _LaneRunner.run


class BatchModulator2(_LaneRunner):
    """Lanes of second-order loop (:class:`SIModulator2`) runs."""

    run = _LaneRunner.run


class BatchChopper(_LaneRunner):
    """Lanes of chopper-stabilised loop runs."""

    run = _LaneRunner.run


#: The batch runner for each :attr:`KernelSpec.kind`.
_RUNNERS: dict[str, type[_LaneRunner]] = {
    "cell": BatchClassABCell,
    "delay": BatchDelayLine,
    "cascade": BatchBiquadCascade,
    "mod1": BatchModulator1,
    "mod2": BatchModulator2,
    "chopper": BatchChopper,
}


def fast_forward_streams(device: object, count: int) -> None:
    """Advance every live random stream of ``device`` by ``count`` draws.

    A shard whose first lane is ``k`` of a sweep calls this with
    ``k * total_samples`` before running any rung, so its lanes consume
    the stream slices a single sequential device would: every stream
    :func:`~repro.runtime.kernels.spec.drawn_streams` names.  Works on
    devices every engine refuses too (the scalar fallback needs it).
    """
    if count <= 0:
        return
    noise, loop_streams = drawn_streams(device)
    for stream in [*noise, *loop_streams.values()]:
        stream.take(count)


def batch_runner_for(device: object, n_lanes: int, n_steps: int) -> _LaneRunner:
    """Lower a device onto the batch runner of its compiled program.

    The program's lane layout is compiled here on the spec's first
    batch run.  Drains nothing: a refused device falls back with its
    streams intact, and an accepted one drains them when its runner
    runs.

    Raises
    ------
    BatchUnsupported
        If the device type or configuration has no bit-exact lowering.
    """
    if n_lanes < 1 or n_steps < 1:
        raise ValueError(
            f"n_lanes and n_steps must be >= 1, got {n_lanes!r}, {n_steps!r}"
        )
    # Imported here: a single run or a narrow sweep never loads the lane
    # layout or the store it calls.
    from repro.runtime.kernels.lanes import lane_function, lane_refusal

    try:
        spec = build_spec(device)
        program = compile_spec(spec)
        if lane_function(program) is None:
            raise BatchUnsupported(lane_refusal(spec))
    except (KernelUnsupported, BatchUnsupported) as error:
        # Imported lazily: this module sits below the observability
        # layer in the import graph and only pays for it on refusal.
        from repro.observability.instruments import get_registry

        get_registry().counter(
            "repro.batch.refusals",
            help="batch lowerings refused (lanes run one at a time)",
        ).inc(device=type(device).__name__, reason=str(error))
        raise BatchUnsupported(str(error)) from None
    return _RUNNERS[spec.kind](device, program, n_lanes, n_steps)
