"""Batch runners: many lanes of one kernel spec, lane-major on NumPy.

A *batch runner* simulates ``n_lanes`` independent runs of one device
side by side: one :func:`repro.runtime.kernels.store_batch` call per
clock period stores every fused half-circuit of every lane at once.
:func:`batch_runner_for` lowers the device through
:func:`~repro.runtime.kernels.spec.build_spec` -- the spec the compiled
kernel tier runs, so both engines refuse the same devices with the
same messages -- and dispatches on ``spec.kind``.  The runners read
the spec's cell, CMFF and loop constants; from the device itself they
take only its live random streams and probes.

Lane semantics reproduce the amplitude-sweep convention of
:func:`repro.analysis.sweeps.run_amplitude_sweep`: one device object
processes the lanes *sequentially*, with :meth:`reset` between lanes.
``reset`` zeroes the loop state but keeps the random streams running,
so a batch run drains ``n_lanes * n_steps`` values from each of the
device's own live streams -- cell noise, quantiser metastability and
dither, DAC reference noise -- and slices them lane-major: lane ``k``
sees exactly the draws the ``k``-th sequential scalar run would, which
is what makes the batch output bit-identical to the scalar loop.  A
shard that starts at lane ``k`` first advances the streams with
:func:`fast_forward_streams`.

Attached :class:`~repro.telemetry.probes.SignalProbe`\\ s are fed
lane-major through ``observe_array`` after the run.  Every refusal
raises :class:`BatchUnsupported` before any stream is drained; callers
fall back to the scalar loop (see :mod:`repro.runtime.sweeps`).
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.deltasigma.dither import DitheredQuantizer
from repro.runtime.kernels import store_batch
from repro.runtime.kernels.spec import (
    CellSpec,
    CmffSpec,
    KernelSpec,
    KernelUnsupported,
    LoopSpec,
    StageSpec,
    build_spec,
    device_parts,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.probes import SignalProbe

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


def _halves(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split differential values into (pos, neg) half-circuit currents.

    Elementwise transliteration of
    :meth:`repro.si.differential.DifferentialSample.from_components`
    at zero common mode: ``pos = 0.0 + half``, ``neg = 0.0 - half``.
    """
    half = 0.5 * values
    return 0.0 + half, 0.0 - half


def _lanes(stream: Any, n_lanes: int, n_steps: int) -> np.ndarray:
    """Drain ``n_lanes * n_steps`` draws from a live stream, lane-major."""
    draws: np.ndarray = stream.take(n_lanes * n_steps)
    return draws.reshape(n_lanes, n_steps)


def _store_constants(cell: CellSpec) -> CellSpec:
    """Return ``cell`` without the wiring flags the store law ignores."""
    return replace(cell, inverting=False, probed=False)


class _FusedCellBank:
    """State, noise and slew tallies of fused cells across lanes.

    The bank holds one ``(2 * n_cells, n_lanes)`` state array (rows
    alternate pos/neg per cell) and drains each cell's live noise feed
    for every lane.
    """

    def __init__(
        self,
        stages: Sequence[StageSpec],
        parts: Sequence[tuple[Any, Any]],
        n_lanes: int,
        n_steps: int,
    ) -> None:
        cell = stages[0].cell
        if any(
            _store_constants(stage.cell) != _store_constants(cell)
            for stage in stages[1:]
        ):
            raise BatchUnsupported(
                "fused cells must share one electrical configuration"
            )
        self.cell = cell
        self.n_cells = len(stages)
        self.state = np.zeros((2 * self.n_cells, n_lanes))
        self.slew_counts = np.zeros((self.n_cells, n_lanes), dtype=np.int64)
        self._step_index = 0

        noise = np.empty((self.n_cells, n_lanes, n_steps))
        for index, (live_cell, _) in enumerate(parts):
            noise[index] = _lanes(live_cell._noise, n_lanes, n_steps)
        # Pre-assemble the per-step additive rows: +0.5*n on pos rows,
        # -(0.5*n) on neg rows (a - b == a + (-b) bitwise).
        half = 0.5 * noise
        self._noise_add = np.empty((n_steps, 2 * self.n_cells, n_lanes))
        self._noise_add[:, 0::2, :] = half.transpose(2, 0, 1)
        self._noise_add[:, 1::2, :] = -half.transpose(2, 0, 1)

        mismatch = cell.mismatch
        self._mismatch_factors: np.ndarray | None = None
        if mismatch != 0.0:
            factors = np.empty((2 * self.n_cells, 1))
            factors[0::2] = 1.0 + 0.5 * mismatch
            factors[1::2] = 1.0 - 0.5 * mismatch
            self._mismatch_factors = factors

        # Lowered telemetry probes: the targets passed to store() are
        # exactly what the scalar loop observes (the cell probe sees the
        # post-CMFF target differential, the CMFF probe its common
        # mode), so buffer those per step and feed them lane-major into
        # observe_array at flush time.
        self._probe_specs: list[tuple[int, "SignalProbe", bool]] = []
        for index, (live_cell, cmff) in enumerate(parts):
            if live_cell._probe is not None:
                self._probe_specs.append((2 * index, live_cell._probe, False))
            if cmff is not None and cmff._probe is not None:
                self._probe_specs.append((2 * index, cmff._probe, True))
        self._probe_bufs = [
            np.empty((n_steps, n_lanes)) for _ in self._probe_specs
        ]

    def store(self, targets: np.ndarray) -> None:
        """Store one period's targets for every fused half and lane."""
        for spec_index, (row, _probe, is_common_mode) in enumerate(
            self._probe_specs
        ):
            if is_common_mode:
                self._probe_bufs[spec_index][self._step_index] = 0.5 * (
                    targets[row] + targets[row + 1]
                )
            else:
                self._probe_bufs[spec_index][self._step_index] = (
                    targets[row] - targets[row + 1]
                )
        settled, slewed = store_batch(self.state, targets, self.cell)
        if self._mismatch_factors is not None:
            settled = settled * self._mismatch_factors
        settled += self._noise_add[self._step_index]
        self.state = settled
        self.slew_counts += slewed[0::2] | slewed[1::2]
        self._step_index += 1

    def flush_probes(self) -> None:
        """Feed the buffered observations into the attached probes.

        Lane-major order -- lane 0's steps, then lane 1's -- matching a
        scalar device reused sequentially across lanes.  Counts,
        extrema and clip statistics are exact; mean and RMS agree with
        the elementwise path to summation-order rounding.
        """
        for (_row, probe, _is_cm), buffer in zip(
            self._probe_specs, self._probe_bufs
        ):
            probe.observe_array(np.ascontiguousarray(buffer.T).reshape(-1))


class _BatchQuantizer:
    """Per-lane sign quantiser with offset, hysteresis and metastability."""

    def __init__(
        self, loop: LoopSpec, quantizer: Any, n_lanes: int, n_steps: int
    ) -> None:
        self.offset = loop.offset
        self.hysteresis = loop.hysteresis
        self.band = loop.band
        # The scalar quantiser resets _last_decision to integer 1; the
        # float lane vector produces identical arithmetic.
        self.last = np.ones(n_lanes)
        self._step = 0
        # One uniform metastability draw per decision (the scalar
        # decide() draws even outside the band, making the stream
        # position a pure step count) and one Gaussian dither draw per
        # decision, both sliced lane-major like the cell noise.
        self._draws: np.ndarray | None = None
        if loop.band > 0.0:
            self._draws = _lanes(quantizer._stream, n_lanes, n_steps)
        self._dither_draws: np.ndarray | None = None
        if loop.dither_rms > 0.0:
            self._dither_draws = _lanes(quantizer._dither, n_lanes, n_steps)

    def decide(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return (decision array of +/-1.0, boolean positive mask)."""
        threshold = self.offset - self.hysteresis * self.last
        if self._dither_draws is not None:
            # Scalar association: (value + draw) - threshold.
            effective = (values + self._dither_draws[:, self._step]) - threshold
        else:
            effective = values - threshold
        mask = effective >= 0.0
        decisions = np.where(mask, 1.0, -1.0)
        if self._draws is not None:
            random_decisions = np.where(
                self._draws[:, self._step] < 0.5, 1.0, -1.0
            )
            decisions = np.where(
                np.abs(effective) < self.band, random_decisions, decisions
            )
            mask = decisions > 0.0
        self._step += 1
        self.last = decisions
        return decisions, mask


class _BatchDac:
    """Per-lane 1-bit DAC with optional reference-noise draws."""

    def __init__(self, loop: LoopSpec, dac: Any, n_lanes: int, n_steps: int) -> None:
        self.level_pos = loop.level_pos
        self.level_neg = loop.level_neg
        self._step = 0
        self._noise: np.ndarray | None = None
        if loop.dac_rms > 0.0:
            self._noise = _lanes(dac._stream, n_lanes, n_steps)

    def convert(self, mask: np.ndarray) -> np.ndarray:
        """Return per-lane feedback currents for a decision mask."""
        feedback = np.where(mask, self.level_pos, self.level_neg)
        if self._noise is not None:
            feedback = feedback + self._noise[:, self._step]
        self._step += 1
        return feedback


def _apply_cmff(
    cmff: CmffSpec, pos: np.ndarray, neg: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Subtract the sensed common mode from both halves.

    Mirror copies evaluate ``gain*i + g_out*dv`` with ``dv = 0.0``; the
    spec keeps the (+/-0.0) conductance terms so the batch addition
    sequence matches the scalar one bitwise.
    """
    i_cm = (cmff.sense_pos_gain * pos + cmff.sense_pos_bias) + (
        cmff.sense_neg_gain * neg + cmff.sense_neg_bias
    )
    out_pos = pos - (cmff.subtract_pos_gain * i_cm + cmff.subtract_pos_bias)
    out_neg = neg - (cmff.subtract_neg_gain * i_cm + cmff.subtract_neg_bias)
    return out_pos, out_neg


class _IntegratorStage:
    """Wiring of one SI integrator/differentiator around a bank row pair."""

    def __init__(self, bank: _FusedCellBank, row: int, stage: StageSpec) -> None:
        self.bank = bank
        self.row = row
        self.gain = stage.gain
        self.cmff = stage.cmff
        self.crossed = stage.crossed

    def state(self) -> tuple[np.ndarray, np.ndarray]:
        """Return the (pos, neg) state rows as of the start of the period."""
        return self.bank.state[self.row], self.bank.state[self.row + 1]

    def targets(
        self, sample_pos: np.ndarray, sample_neg: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return the cell store targets for one input sample."""
        state_pos, state_neg = self.state()
        if self.crossed:
            state_pos, state_neg = state_neg, state_pos
        if self.gain != 1.0:
            # Scaling by exactly 1.0 is the identity in IEEE-754, so
            # the common unit-gain case skips the multiplies.
            sample_pos = sample_pos * self.gain
            sample_neg = sample_neg * self.gain
        target_pos = state_pos + sample_pos
        target_neg = state_neg + sample_neg
        if self.cmff is not None:
            target_pos, target_neg = _apply_cmff(self.cmff, target_pos, target_neg)
        return target_pos, target_neg


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


def _check_shape(stimuli: np.ndarray, n_lanes: int, n_steps: int) -> np.ndarray:
    data = np.asarray(stimuli, dtype=float)
    if data.shape != (n_lanes, n_steps):
        raise ValueError(
            f"stimuli must have shape ({n_lanes}, {n_steps}), got {data.shape}"
        )
    return data


def _transposed_halves(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return step-major contiguous (pos, neg) stimulus half matrices."""
    pos, neg = _halves(data)
    return np.ascontiguousarray(pos.T), np.ascontiguousarray(neg.T)


class _LaneRunner:
    """What every batch runner builds from its spec: bank and stages.

    The cell bank drains the cell noise feeds here; the quantiser and
    DAC streams are drained when ``run`` builds its loop elements.
    """

    def __init__(
        self, device: object, spec: KernelSpec, n_lanes: int, n_steps: int
    ) -> None:
        stages, self._quantizer, self._dac = device_parts(device)
        self.n_lanes = n_lanes
        self.n_steps = n_steps
        self._device = device
        self._spec = spec
        self._bank = _FusedCellBank(spec.all_stages, stages, n_lanes, n_steps)
        self._stages = [
            _IntegratorStage(self._bank, 2 * index, stage)
            for index, stage in enumerate(spec.all_stages)
        ]

    def _loop_elements(self) -> tuple[_BatchQuantizer, _BatchDac, float]:
        """Return the lane quantiser, DAC and full scale of the loop.

        Building the quantiser and DAC drains their live streams.
        """
        loop = self._spec.loop
        assert loop is not None
        return (
            _BatchQuantizer(loop, self._quantizer, self.n_lanes, self.n_steps),
            _BatchDac(loop, self._dac, self.n_lanes, self.n_steps),
            loop.full_scale,
        )


class BatchClassABCell(_LaneRunner):
    """Vectorized :meth:`ClassABMemoryCell.run` over a lane axis."""

    def run(self, stimuli: np.ndarray) -> np.ndarray:
        """Run every lane; returns the differential outputs (lanes, steps)."""
        data = _check_shape(stimuli, self.n_lanes, self.n_steps)
        pos_t, neg_t = _transposed_halves(data)
        output = np.empty((self.n_steps, self.n_lanes))
        bank = self._bank
        inverting = bank.cell.inverting
        targets = np.empty((2, self.n_lanes))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for n in range(self.n_steps):
                held_pos = bank.state[0]
                held_neg = bank.state[1]
                if inverting:
                    output[n] = np.negative(held_pos) - np.negative(held_neg)
                else:
                    output[n] = held_pos - held_neg
                targets[0] = pos_t[n]
                targets[1] = neg_t[n]
                bank.store(targets)
        bank.flush_probes()
        return np.ascontiguousarray(output.T)


class BatchDelayLine(_LaneRunner):
    """Vectorized :class:`DelayLine` run over a lane axis.

    Every cell's store target depends only on the *previous* period's
    states (each ``step`` returns the held sample from before the
    store), so the whole cascade fuses into a single kernel call per
    period.
    """

    def run(self, stimuli: np.ndarray) -> np.ndarray:
        """Run every lane; returns the differential outputs (lanes, steps)."""
        data = _check_shape(stimuli, self.n_lanes, self.n_steps)
        pos_t, neg_t = _transposed_halves(data)
        output = np.empty((self.n_steps, self.n_lanes))
        bank = self._bank
        n_cells = bank.n_cells
        inverting = [stage.cell.inverting for stage in self._spec.stages]
        targets = np.empty((2 * n_cells, self.n_lanes))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for n in range(self.n_steps):
                value_pos: np.ndarray = pos_t[n]
                value_neg: np.ndarray = neg_t[n]
                for cell in range(n_cells):
                    targets[2 * cell] = value_pos
                    targets[2 * cell + 1] = value_neg
                    held_pos = bank.state[2 * cell]
                    held_neg = bank.state[2 * cell + 1]
                    if inverting[cell]:
                        value_pos = np.negative(held_pos)
                        value_neg = np.negative(held_neg)
                    else:
                        value_pos = held_pos
                        value_neg = held_neg
                output[n] = value_pos - value_neg
                bank.store(targets)
        bank.flush_probes()
        return np.ascontiguousarray(output.T)


class BatchBiquadCascade(_LaneRunner):
    """Vectorized :class:`BiquadCascade` band-pass run over a lane axis."""

    def run(self, stimuli: np.ndarray) -> np.ndarray:
        """Run every lane; returns the band-pass outputs (lanes, steps)."""
        data = _check_shape(stimuli, self.n_lanes, self.n_steps)
        stim_t = np.ascontiguousarray(data.T)
        output = np.empty((self.n_steps, self.n_lanes))
        bank = self._bank
        coefficients = [
            (section.k1, section.k2, section.q) for section in self._spec.sections
        ]
        targets = np.empty((2 * bank.n_cells, self.n_lanes))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for n in range(self.n_steps):
                signal: np.ndarray = stim_t[n]
                for index, (k1, k2, q) in enumerate(coefficients):
                    stage1 = self._stages[2 * index]
                    stage2 = self._stages[2 * index + 1]
                    w1_pos, w1_neg = stage1.state()
                    w2_pos, w2_neg = stage2.state()
                    w1 = w1_pos - w1_neg
                    w2 = w2_pos - w2_neg
                    u1 = k1 * (signal - q * w1 - w2)
                    u2 = k2 * w1
                    u1_pos, u1_neg = _halves(u1)
                    u2_pos, u2_neg = _halves(u2)
                    row = 4 * index
                    targets[row], targets[row + 1] = stage1.targets(u1_pos, u1_neg)
                    targets[row + 2], targets[row + 3] = stage2.targets(
                        u2_pos, u2_neg
                    )
                    signal = w1
                output[n] = signal
                bank.store(targets)
        bank.flush_probes()
        return np.ascontiguousarray(output.T)


class BatchModulator1(_LaneRunner):
    """Vectorized first-order loop (:class:`SIModulator1`) over lanes."""

    def run(self, stimuli: np.ndarray) -> np.ndarray:
        """Run every lane; returns the bit-stream outputs (lanes, steps)."""
        data = _check_shape(stimuli, self.n_lanes, self.n_steps)
        stim_t = np.ascontiguousarray(data.T)
        quantizer, dac, full_scale = self._loop_elements()
        output = np.empty((self.n_steps, self.n_lanes))
        bank = self._bank
        (stage,) = self._stages
        targets = np.empty((2, self.n_lanes))
        a = self._spec.a1
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for n in range(self.n_steps):
                w_pos, w_neg = stage.state()
                decisions, mask = quantizer.decide(w_pos - w_neg)
                feedback = dac.convert(mask)
                u_pos, u_neg = _halves(a * (stim_t[n] - feedback))
                targets[0], targets[1] = stage.targets(u_pos, u_neg)
                output[n] = decisions * full_scale
                bank.store(targets)
        bank.flush_probes()
        result = np.ascontiguousarray(output.T)
        _feed_loop_probes(self._device, data, result)
        return result


class BatchModulator2(_LaneRunner):
    """Vectorized second-order loop (:class:`SIModulator2`) over lanes.

    Both integrators step from pre-period states, so their four
    half-circuits fuse into one kernel call per period.
    """

    def run(self, stimuli: np.ndarray) -> np.ndarray:
        """Run every lane; returns the bit-stream outputs (lanes, steps)."""
        data = _check_shape(stimuli, self.n_lanes, self.n_steps)
        pos_t, neg_t = _transposed_halves(data)
        quantizer, dac, full_scale = self._loop_elements()
        output = np.empty((self.n_steps, self.n_lanes))
        bank = self._bank
        stage1, stage2 = self._stages
        targets = np.empty((4, self.n_lanes))
        spec = self._spec
        a1, a2, b2 = spec.a1, spec.a2, spec.b2
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for n in range(self.n_steps):
                w1_pos, w1_neg = stage1.state()
                w2_pos, w2_neg = stage2.state()
                decisions, mask = quantizer.decide(w2_pos - w2_neg)
                feedback = dac.convert(mask)
                fb_pos, fb_neg = _halves(feedback)
                u1_pos = (pos_t[n] - fb_pos) * a1
                u1_neg = (neg_t[n] - fb_neg) * a1
                u2_pos = w1_pos * a2 - fb_pos * b2
                u2_neg = w1_neg * a2 - fb_neg * b2
                targets[0], targets[1] = stage1.targets(u1_pos, u1_neg)
                targets[2], targets[3] = stage2.targets(u2_pos, u2_neg)
                output[n] = decisions * full_scale
                bank.store(targets)
        bank.flush_probes()
        result = np.ascontiguousarray(output.T)
        _feed_loop_probes(self._device, data, result)
        return result


class BatchChopper(_LaneRunner):
    """Vectorized chopper-stabilised loop over lanes."""

    def run(self, stimuli: np.ndarray) -> np.ndarray:
        """Run every lane; returns the post-chopper outputs (lanes, steps)."""
        data = _check_shape(stimuli, self.n_lanes, self.n_steps)
        # The input chopper multiplies sample n by (-1)^n; multiplying
        # by +/-1.0 is exact, so pre-chopping the whole matrix equals
        # the scalar per-sample product.
        signs = np.where(np.arange(self.n_steps) % 2 == 0, 1.0, -1.0)
        chopped = signs[np.newaxis, :] * data
        stim_t = np.ascontiguousarray(chopped.T)
        quantizer, dac, full_scale = self._loop_elements()
        raw = np.empty((self.n_steps, self.n_lanes))
        bank = self._bank
        stage1, stage2 = self._stages
        targets = np.empty((4, self.n_lanes))
        spec = self._spec
        a1, a2, b2 = spec.a1, spec.a2, spec.b2
        neg_a1 = -a1
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for n in range(self.n_steps):
                w1_pos, w1_neg = stage1.state()
                w2_pos, w2_neg = stage2.state()
                decisions, mask = quantizer.decide(w2_pos - w2_neg)
                feedback = dac.convert(mask)
                fb_pos, fb_neg = _halves(feedback)
                u_pos, u_neg = _halves(stim_t[n])
                s1_pos = (u_pos - fb_pos) * neg_a1
                s1_neg = (u_neg - fb_neg) * neg_a1
                s2_pos = fb_pos * b2 - w1_pos * a2
                s2_neg = fb_neg * b2 - w1_neg * a2
                targets[0], targets[1] = stage1.targets(s1_pos, s1_neg)
                targets[2], targets[3] = stage2.targets(s2_pos, s2_neg)
                raw[n] = decisions * full_scale
                bank.store(targets)
        bank.flush_probes()
        # Output chopper: again an exact +/-1.0 product per sample.
        output = signs[:, np.newaxis] * raw
        result = np.ascontiguousarray(output.T)
        _feed_loop_probes(self._device, data, result)
        return result


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
    the stream slices a single sequential device would: the cell noise
    feeds, and the quantiser metastability and dither and DAC
    reference-noise streams when those draws are active.  Works on
    devices every engine refuses too (the scalar fallback needs it).
    """
    if count <= 0:
        return
    stages, quantizer, dac = device_parts(device)
    streams = [cell._noise for cell, _ in stages]
    if quantizer is not None:
        if quantizer.metastability_band > 0.0:
            streams.append(quantizer._stream)
        if isinstance(quantizer, DitheredQuantizer) and quantizer.dither_rms > 0.0:
            streams.append(quantizer._dither)
    if dac is not None and dac.reference_noise_rms > 0.0:
        streams.append(dac._stream)
    for stream in streams:
        stream.take(count)


def batch_runner_for(device: object, n_lanes: int, n_steps: int) -> _LaneRunner:
    """Lower a device onto the batch runner of its kernel spec.

    Every refusal is raised before any of the device's streams is
    drained, so a refused device falls back with its streams intact.

    Raises
    ------
    BatchUnsupported
        If the device type or configuration has no bit-exact lowering.
    """
    if n_lanes < 1 or n_steps < 1:
        raise ValueError(
            f"n_lanes and n_steps must be >= 1, got {n_lanes!r}, {n_steps!r}"
        )
    try:
        spec = build_spec(device)
        return _RUNNERS[spec.kind](device, spec, n_lanes, n_steps)
    except (KernelUnsupported, BatchUnsupported) as error:
        # Imported lazily: this module sits below the observability
        # layer in the import graph and only pays for it on refusal.
        from repro.observability.instruments import get_registry

        get_registry().counter(
            "repro.batch.refusals",
            help="batch lowerings refused (scalar fallback taken)",
        ).inc(device=type(device).__name__)
        raise BatchUnsupported(str(error)) from None
