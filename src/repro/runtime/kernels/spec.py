"""Kernel specs: frozen state-space descriptions of lowered designs.

Both lowered engines execute a device by *transliterating* its
configuration, never its Python methods.  This module is the one
lowering step they share: :func:`build_spec` walks a device, checks
the declared lowering protocol (:mod:`repro.runtime.lowering`), and
freezes every constant the run needs into a hashable
:class:`KernelSpec`; :func:`device_parts` returns the live cells, CMFF
stages, quantizer and DAC in the same order, and :func:`drawn_streams`
the random streams a run draws.  The spec is the *only* input to code
generation (:mod:`repro.runtime.kernels.codegen`), which emits both
the scalar kernel and the lane-major function the NumPy batch runners
(:mod:`repro.runtime.batch`) call, so two devices with identical
electrical configuration share one compiled program.  Adding a device
means lowering it here and wiring it once in the codegen walk.

The linear part of each design is also exposed as explicit state-space
matrices (:func:`state_matrices`) -- the A/B/C/D formulation of the
loop filter around the nonlinear quantizer/clip taps.  Execution keeps
the *factored* per-step form instead of a matmul: the bit-exactness
contract fixes the IEEE-754 association of every intermediate (e.g.
``(x_pos - fb_pos) * a1`` must round exactly like the scalar loop), and
a fused ``A @ state`` would re-associate those sums.  The matrices are
the analysis view -- the scalar loop's recorded states obey them, and
:func:`loop_transfer` closes them into Eq. (3) -- and the generated
source is the executable one.

Both engines consume the device's **live** random streams
(:func:`drawn_streams`: the cell noise feeds, the quantiser
metastability and dither streams, the DAC reference-noise stream), so
seeds are not needed for byte-equality with the scalar loop on the same
device instance -- unseeded configurations lower too.  Only protocol
violations refuse: behavioural subclasses outside the declared hook
allowlist, unpaired probe overrides on the stage probes, and device
types without a transliteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.deltasigma.chopper_modulator import ChopperStabilizedSIModulator
from repro.deltasigma.dac import FeedbackDac
from repro.deltasigma.dither import DitheredQuantizer
from repro.deltasigma.loop import FeedbackLoop
from repro.deltasigma.modulator1 import SIModulator1
from repro.deltasigma.modulator2 import SIModulator2
from repro.deltasigma.quantizer import CurrentQuantizer
from repro.runtime.lowering import (
    lowering_refusal,
    probe_refusal,
    subclass_refusal,
)
from repro.si.cascade import BiquadCascade
from repro.si.delay_line import DelayLine
from repro.si.memory_cell import ClassABMemoryCell

__all__ = [
    "KernelUnsupported",
    "CellSpec",
    "CmffSpec",
    "StageSpec",
    "SectionSpec",
    "LoopSpec",
    "KernelSpec",
    "build_spec",
    "device_parts",
    "drawn_streams",
    "state_matrices",
    "loop_transfer",
]


class KernelUnsupported(Exception):
    """The device has no bit-exact compiled-kernel lowering."""


@dataclass(frozen=True)
class CellSpec:
    """Constants of one class-AB memory cell's store pipeline.

    Every field is computed with the same expression the scalar model
    evaluates per sample, so literals inlined from the spec start from
    identical 64-bit values.
    """

    iq_squared: float
    trans_ratio: float
    trans_iq: float
    trans_floor: float
    inj_residual: float
    inj_iq: float
    inj_floor: float
    kick: float
    bias: float
    tau_fraction: float
    margin_floor: float
    mismatch: float
    inverting: bool
    probed: bool

    @classmethod
    def from_cell(cls, cell: ClassABMemoryCell) -> "CellSpec":
        config = cell.config
        iq = config.quiescent_current
        trans = config.transmission
        inj = config.injection
        gga = config.gga
        return cls(
            iq_squared=iq * iq,
            trans_ratio=trans.effective_ratio,
            trans_iq=trans.quiescent_current,
            trans_floor=1e-3 * trans.quiescent_current,
            inj_residual=inj.residual_at_quiescent,
            inj_iq=inj.quiescent_current,
            inj_floor=1e-3 * inj.quiescent_current,
            kick=gga.phase_kick_fraction,
            bias=gga.bias_current,
            tau_fraction=gga.settling_tau_fraction,
            margin_floor=gga.drive_margin_floor,
            mismatch=config.half_gain_mismatch,
            inverting=config.inverting,
            probed=cell._probe is not None,
        )

    @property
    def front_never_negative_zero(self) -> bool:
        """Whether the store front's ``value`` can never be ``-0.0``.

        It ends ``value + inj_residual * sqrt(current / inj_iq)`` with a
        positive, finite square root (``current`` is clamped to a
        positive floor), or ``sqrt(inf)``.  With a residual of +0.0 or
        more the term is +0.0, positive, +inf or NaN, and ``x + y`` is
        ``-0.0`` only when both are.  A ``-0.0`` (or NaN) residual
        gives no such guarantee.
        """
        residual = self.inj_residual
        return residual >= 0.0 and math.copysign(1.0, residual) > 0.0


@dataclass(frozen=True)
class CmffSpec:
    """Common-mode feedforward mirror gains and +/-0.0 bias terms."""

    sense_pos_gain: float
    sense_neg_gain: float
    subtract_pos_gain: float
    subtract_neg_gain: float
    sense_pos_bias: float
    sense_neg_bias: float
    subtract_pos_bias: float
    subtract_neg_bias: float
    probed: bool

    @classmethod
    def from_cmff(cls, cmff: Any) -> "CmffSpec":
        return cls(
            sense_pos_gain=cmff.sense_pos.gain,
            sense_neg_gain=cmff.sense_neg.gain,
            subtract_pos_gain=cmff.subtract_pos.gain,
            subtract_neg_gain=cmff.subtract_neg.gain,
            sense_pos_bias=cmff.sense_pos.output_conductance * 0.0,
            sense_neg_bias=cmff.sense_neg.output_conductance * 0.0,
            subtract_pos_bias=cmff.subtract_pos.output_conductance * 0.0,
            subtract_neg_bias=cmff.subtract_neg.output_conductance * 0.0,
            probed=cmff._probe is not None,
        )


@dataclass(frozen=True)
class StageSpec:
    """One integrator/differentiator stage: cell + gain + wiring."""

    cell: CellSpec
    gain: float
    crossed: bool
    cmff: CmffSpec | None


@dataclass(frozen=True)
class SectionSpec:
    """One biquad section: coefficients plus its two stages."""

    k1: float
    k2: float
    q: float
    first: StageSpec
    second: StageSpec


@dataclass(frozen=True)
class LoopSpec:
    """Quantiser + DAC constants of a one-bit feedback loop."""

    offset: float
    hysteresis: float
    band: float
    dither_rms: float
    level_pos: float
    level_neg: float
    dac_rms: float
    full_scale: float


@dataclass(frozen=True)
class KernelSpec:
    """Complete, hashable description of one compiled device kernel.

    ``kind`` selects the loop shape; the remaining fields carry the
    constants that shape uses.  Two devices with equal specs share one
    generated (and one JIT-compiled) kernel.
    """

    kind: str  # "cell" | "delay" | "cascade" | "mod1" | "mod2" | "chopper"
    stages: tuple[StageSpec, ...] = ()
    sections: tuple[SectionSpec, ...] = ()
    loop: LoopSpec | None = None
    a1: float = 0.0
    a2: float = 0.0
    b2: float = 0.0

    @property
    def all_stages(self) -> tuple[StageSpec, ...]:
        """Return every stage in kernel emission order."""
        if self.sections:
            return tuple(
                stage
                for section in self.sections
                for stage in (section.first, section.second)
            )
        return self.stages


def _refuse(component: object) -> None:
    """Raise :class:`KernelUnsupported` if ``component`` refuses lowering."""
    reason = lowering_refusal(component)
    if reason is not None:
        raise KernelUnsupported(reason)


def _check_probe(probe: object) -> None:
    if probe is None:
        return
    reason = probe_refusal(probe)
    if reason is not None:
        raise KernelUnsupported(reason)


def _cell_spec(cell: Any) -> CellSpec:
    _refuse(cell)
    if not isinstance(cell, ClassABMemoryCell):
        raise KernelUnsupported(
            f"unsupported memory cell type {type(cell).__name__}"
        )
    _check_probe(cell._probe)
    return CellSpec.from_cell(cell)


def _stage_spec(stage: Any, crossed: bool) -> StageSpec:
    _refuse(stage)
    cmff = stage.cmff
    cmff_spec: CmffSpec | None = None
    if cmff is not None:
        for component in (
            cmff,
            cmff.sense_pos,
            cmff.sense_neg,
            cmff.subtract_pos,
            cmff.subtract_neg,
        ):
            _refuse(component)
        _check_probe(cmff._probe)
        cmff_spec = CmffSpec.from_cmff(cmff)
    return StageSpec(
        cell=_cell_spec(stage._cell),
        gain=stage.gain,
        crossed=crossed,
        cmff=cmff_spec,
    )


def _loop_spec(quantizer: Any, dac: Any, full_scale: float) -> LoopSpec:
    qtype = type(quantizer)
    if qtype is CurrentQuantizer:
        dither_rms = 0.0
    elif qtype is DitheredQuantizer:
        dither_rms = quantizer.dither_rms
    else:
        raise KernelUnsupported(
            lowering_refusal(quantizer)
            or subclass_refusal("quantizer", qtype.__name__)
        )
    if type(dac) is not FeedbackDac:
        raise KernelUnsupported(
            lowering_refusal(dac)
            or subclass_refusal("DAC", type(dac).__name__)
        )
    return LoopSpec(
        offset=quantizer.offset,
        hysteresis=quantizer.hysteresis,
        band=quantizer.metastability_band,
        dither_rms=dither_rms,
        level_pos=dac._level_pos,
        level_neg=dac._level_neg,
        dac_rms=dac.reference_noise_rms,
        full_scale=full_scale,
    )


#: The kernel kind of each modulator loop.
_LOOP_KINDS: tuple[tuple[type[FeedbackLoop], str], ...] = (
    (SIModulator1, "mod1"),
    (SIModulator2, "mod2"),
    (ChopperStabilizedSIModulator, "chopper"),
)


def _stages_of(device: object) -> tuple[str, tuple[Any, ...]]:
    """Return ``(kind, stages)``: the device's live stages in spec order.

    A stage is a bare memory cell for the open-loop cell and delay
    line, and an integrator/differentiator (``._cell`` plus ``.cmff``)
    everywhere else.  This is the one place that maps each lowered
    device to its shape; a modulator loop's stages are its own
    :meth:`~repro.deltasigma.loop.FeedbackLoop.loop_stages`.
    """
    if isinstance(device, ClassABMemoryCell):
        return "cell", (device,)
    if isinstance(device, DelayLine):
        return "delay", tuple(device.cells)
    if isinstance(device, BiquadCascade):
        return "cascade", tuple(
            stage
            for section in device.sections
            for stage in (section._int1, section._int2)
        )
    for loop, kind in _LOOP_KINDS:
        if isinstance(device, loop):
            return kind, tuple(stage for _, stage, _ in device.loop_stages())
    raise KernelUnsupported(
        f"no kernel lowering for {type(device).__name__}"
    )


def device_parts(
    device: object,
) -> tuple[list[tuple[ClassABMemoryCell, Any]], Any, Any]:
    """Return ``(stages, quantizer, dac)`` of a device in spec order.

    ``stages`` pairs each live memory cell with its CMFF stage (or
    None), index-aligned with :attr:`KernelSpec.all_stages`, so the
    runners find the noise feed, probes and state of stage ``j`` at
    ``stages[j]``.  The quantizer and DAC are None for the open-loop
    devices.  No lowering checks run here: the sweep's scalar fallback
    uses the parts of devices :func:`build_spec` refuses.
    """
    kind, stages = _stages_of(device)
    if kind in ("cell", "delay"):
        return [(cell, None) for cell in stages], None, None
    pairs = [(stage._cell, stage.cmff) for stage in stages]
    if kind == "cascade":
        return pairs, None, None
    return pairs, device.quantizer, device.dac  # type: ignore[attr-defined]


def drawn_streams(device: object) -> tuple[list[Any], dict[str, Any]]:
    """Return the live random streams one run of ``device`` draws from.

    The one rule every rung follows: a run of ``n`` steps takes exactly
    ``n`` draws from each stream returned here, and from no other.
    The first item lists each stage's cell-noise feed in spec order;
    the second maps the loop's kernel argument names to streams: the
    quantizer's metastability stream (``meta``) when its band is open,
    its dither stream (``dith``) when it dithers, and the DAC reference
    stream (``dacn``) when that is noisy.  Like :func:`device_parts`, it
    runs no lowering checks, so refused devices can fast-forward too.
    """
    stages, quantizer, dac = device_parts(device)
    loop: dict[str, Any] = {}
    if quantizer is not None:
        if quantizer.metastability_band > 0.0:
            loop["meta"] = quantizer._stream
        if isinstance(quantizer, DitheredQuantizer) and quantizer.dither_rms > 0.0:
            loop["dith"] = quantizer._dither
    if dac is not None and dac.reference_noise_rms > 0.0:
        loop["dacn"] = dac._stream
    return [cell._noise for cell, _ in stages], loop


def build_spec(device: object) -> KernelSpec:
    """Lower ``device`` to its kernel spec, or raise :class:`KernelUnsupported`.

    Checks the declared lowering protocol on the device and every
    sub-component, and the probe pairing rule on every attached stage
    probe.  Both lowered engines -- this tier and the NumPy batch
    runners -- lower through here, so they refuse the same devices with
    the same messages.  Seeds are *not* required: both consume the
    device's live streams (see the module docstring).
    """
    _refuse(device)
    kind, stages = _stages_of(device)
    if kind in ("cell", "delay"):
        return KernelSpec(
            kind=kind,
            stages=tuple(
                StageSpec(
                    cell=_cell_spec(cell), gain=1.0, crossed=False, cmff=None
                )
                for cell in stages
            ),
        )
    specs = tuple(
        _stage_spec(stage, crossed=kind == "chopper") for stage in stages
    )
    if kind == "cascade":
        return KernelSpec(
            kind=kind,
            sections=tuple(
                SectionSpec(
                    k1=section.k1,
                    k2=section.k2,
                    q=section.q,
                    first=specs[2 * index],
                    second=specs[2 * index + 1],
                )
                for index, section in enumerate(device.sections)  # type: ignore[attr-defined]
            ),
        )
    modulator: Any = device
    loop = _loop_spec(modulator.quantizer, modulator.dac, modulator.full_scale)
    if kind == "mod1":
        return KernelSpec(kind=kind, stages=specs, loop=loop, a1=modulator.a)
    return KernelSpec(
        kind=kind,
        stages=specs,
        loop=loop,
        a1=modulator.a1,
        a2=modulator.a2,
        b2=modulator.b2,
    )


def state_matrices(
    spec: KernelSpec,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Return the (A, B, C, D) matrices of the spec's linear core.

    The state vector holds the differential stored value of each cell
    in kernel order; inputs are ``[x, y_fb]`` for the feedback loops and
    ``[x]`` for the open-loop structures; the output taps the signal the
    nonlinear element (quantiser) or the device output reads.  This is
    the analysis view of the recurrence -- execution uses the factored
    per-step source precisely so IEEE-754 association matches the
    scalar loop (see the module docstring).
    """
    if spec.kind in ("cell", "delay"):
        n = len(spec.stages)
        a = np.zeros((n, n))
        b = np.zeros((n, 1))
        signs = [-1.0 if s.cell.inverting else 1.0 for s in spec.stages]
        b[0, 0] = 1.0
        for j in range(1, n):
            a[j, j - 1] = signs[j - 1]
        c = np.zeros((1, n))
        c[0, n - 1] = signs[n - 1]
        return a, b, c, np.zeros((1, 1))
    if spec.kind == "cascade":
        n = 2 * len(spec.sections)
        a = np.eye(n)
        b = np.zeros((n, 1))
        chain_gain = 1.0
        for index, section in enumerate(spec.sections):
            r = 2 * index
            g1 = section.first.gain
            g2 = section.second.gain
            a[r, r] = 1.0 - section.k1 * section.q * g1
            a[r, r + 1] = -section.k1 * g1
            a[r + 1, r] = section.k2 * g2
            if index == 0:
                b[r, 0] = section.k1 * g1 * chain_gain
            else:
                # Later sections are driven by the previous w1 state.
                a[r, r - 2] += section.k1 * g1
        c = np.zeros((1, n))
        c[0, n - 2] = 1.0
        return a, b, c, np.zeros((1, 1))
    if spec.kind == "mod1":
        g = spec.stages[0].gain
        a = np.array([[1.0]])
        b = np.array([[spec.a1 * g, -spec.a1 * g]])
        return a, b, np.array([[1.0]]), np.zeros((1, 2))
    if spec.kind == "mod2":
        g1 = spec.stages[0].gain
        g2 = spec.stages[1].gain
        a = np.array([[1.0, 0.0], [spec.a2 * g2, 1.0]])
        b = np.array(
            [[spec.a1 * g1, -spec.a1 * g1], [0.0, -spec.b2 * g2]]
        )
        return a, b, np.array([[0.0, 1.0]]), np.zeros((1, 2))
    if spec.kind == "chopper":
        g1 = spec.stages[0].gain
        g2 = spec.stages[1].gain
        # Differentiator stages feed the crossed (negated differential)
        # state back, so the diagonal is -1 in the differential basis.
        a = np.array([[-1.0, 0.0], [-spec.a2 * g2, -1.0]])
        b = np.array(
            [[-spec.a1 * g1, spec.a1 * g1], [0.0, spec.b2 * g2]]
        )
        return a, b, np.array([[0.0, 1.0]]), np.zeros((1, 2))
    raise KernelUnsupported(f"no state-space view for kind {spec.kind!r}")


def loop_transfer(spec: KernelSpec, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Return ``length`` taps of a feedback loop's (STF, NTF) impulse responses.

    Closes the :func:`state_matrices` loop through the linearised
    quantizer ``y = k C s + e`` and records ``y`` for a unit impulse in
    ``x`` (STF) and in ``e`` (NTF).  The gain is derived, not passed:
    ``k = -tr(A) / (C b_y)`` zeroes the closed-loop pole sum, the scale
    a sign quantizer leaves free (``docs/THEORY.md`` §4).  Taps are in
    the converter-output domain: the chopper's are multiplied by
    ``(-1)^n``, its z -> -z.
    """
    a, b, c, _ = state_matrices(spec)
    if b.shape[1] != 2:
        raise KernelUnsupported(f"kind {spec.kind!r} has no feedback input")
    gain = float(-np.trace(a) / (c[0] @ b[:, 1]))
    closed = a + gain * np.outer(b[:, 1], c[0])
    taps = np.zeros((length, 2))
    taps[0, 1] = 1.0
    states = b  # the states one step after each impulse, as columns
    for n in range(1, length):
        taps[n] = gain * (c[0] @ states)
        states = closed @ states
    if spec.kind == "chopper":
        taps *= (-1.0) ** np.arange(length)[:, None]
    return taps[:, 0], taps[:, 1]
