"""Fully differential class-AB SI memory cell (Fig. 1 of the paper).

The cell stores a current sample on the gate capacitance of a
complementary memory-transistor pair (MN/MP) behind a grounded-gate
amplifier.  The behavioural model applies, per half-circuit and per
sample, the error mechanisms the paper identifies:

* signal-dependent **transmission error** from the finite
  input/output conductance ratio, divided by the GGA gain
  (:class:`repro.si.errors_model.TransmissionError`);
* **charge-injection residue** after complementary-switch and
  fully-differential cancellation
  (:class:`repro.si.errors_model.ChargeInjectionResidue`);
* **slew-limited settling** in the GGA
  (:class:`repro.si.gga.GroundedGateAmplifier`), the paper's measured
  THD mechanism;
* **thermal noise** from the memory transistors (the 33 nA floor) and
  optional **1/f noise**, with first-difference **correlated double
  sampling** shaping when enabled -- second-generation cells perform
  CDS intrinsically, which is reason (1) the paper gives for the
  chopper buying nothing.

The **class-AB split** itself is modelled with the square-law
translinear relation: an input current ``i`` splits between the n- and
p-devices as

    i_N = i/2 + sqrt(i^2/4 + I_Q^2),    i_P = i_N - i

so both devices always conduct, their difference is the signal, and
their quiescent product is ``I_Q^2``.  "The input current can be larger
than the quiescent current in the memory transistor that can be
designed to be small" -- the power advantage quantified in
:mod:`repro.si.power`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.clocks.phases import Phase
from repro.errors import ConfigurationError
from repro.noise.flicker import FlickerNoiseSource
from repro.si.differential import DifferentialSample
from repro.si.errors_model import ChargeInjectionResidue, TransmissionError
from repro.si.gga import GroundedGateAmplifier
from repro.si.stages import Stage, StagedDevice

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.probes import SignalProbe
    from repro.telemetry.session import TelemetrySession

__all__ = [
    "class_ab_split",
    "MemoryCellConfig",
    "ClassABMemoryCell",
    "ClassAMemoryCell",
]

#: Number of noise samples pre-drawn per refill; amortises RNG cost in
#: the per-sample stepping loops.
_NOISE_CHUNK = 1 << 14


def class_ab_split(signal_current: float, quiescent_current: float) -> tuple[float, float]:
    """Split a signal current between the class-AB device pair.

    Returns ``(i_n, i_p)`` with ``i_n - i_p = signal_current`` and
    ``i_n * i_p = quiescent_current**2`` at zero signal (square-law
    translinear loop).  Both device currents are always positive: the
    class-AB pair never cuts off.

    Raises
    ------
    ConfigurationError
        If ``quiescent_current`` is not positive.
    """
    if quiescent_current <= 0.0:
        raise ConfigurationError(
            f"quiescent_current must be positive, got {quiescent_current!r}"
        )
    half = 0.5 * signal_current
    root = math.sqrt(half * half + quiescent_current * quiescent_current)
    # Evaluate the smaller device current via the product invariant
    # i_n * i_p = I_Q^2 instead of the difference root -+ half, which
    # cancels catastrophically when |signal| >> I_Q.
    if half >= 0.0:
        i_n = half + root
        i_p = quiescent_current * quiescent_current / i_n
    else:
        i_p = root - half
        i_n = quiescent_current * quiescent_current / i_p
    return i_n, i_p


@dataclass(frozen=True)
class MemoryCellConfig:
    """All parameters of a behavioural class-AB memory cell.

    Parameters
    ----------
    quiescent_current:
        Memory-device quiescent current I_Q in amperes.
    gga:
        Grounded-gate amplifier model (gain, slew, settling).
    transmission:
        Conductance-ratio error model.
    injection:
        Charge-injection residue model.
    thermal_noise_rms:
        Differential thermal-noise rms per stored sample, in amperes.
        Zero disables thermal noise.
    flicker_corner_hz:
        1/f corner frequency against the thermal floor, in hertz.
        Zero disables flicker noise.
    sample_rate:
        Clock frequency in hertz; needed by the flicker synthesiser.
    cds_enabled:
        Apply first-difference (correlated double sampling) shaping to
        the flicker component, as second-generation cells do
        intrinsically.
    half_gain_mismatch:
        Relative gain imbalance between the two half-circuits; converts
        common mode to differential and breaks even-order cancellation.
    inverting:
        Whether the cell's held output current is sign-inverted
        relative to its input (true for a second-generation cell).
    seed:
        Seed for the cell's private noise generator; None draws an
        unseeded generator.
    """

    quiescent_current: float = 2e-6
    gga: GroundedGateAmplifier = field(default_factory=GroundedGateAmplifier)
    transmission: TransmissionError = field(default_factory=TransmissionError)
    injection: ChargeInjectionResidue = field(default_factory=ChargeInjectionResidue)
    thermal_noise_rms: float = 33e-9
    flicker_corner_hz: float = 0.0
    sample_rate: float = 5e6
    cds_enabled: bool = True
    half_gain_mismatch: float = 0.0
    inverting: bool = True
    seed: int | None = None

    def __post_init__(self) -> None:
        # Written so that NaN fails every test: a NaN noise rms would
        # otherwise read as "no noise" and run a noiseless cell.
        if not 0.0 < self.quiescent_current < math.inf:
            raise ConfigurationError(
                "quiescent_current must be positive and finite, "
                f"got {self.quiescent_current!r}"
            )
        if not 0.0 <= self.thermal_noise_rms < math.inf:
            raise ConfigurationError(
                "thermal_noise_rms must be non-negative and finite, "
                f"got {self.thermal_noise_rms!r}"
            )
        if not 0.0 <= self.flicker_corner_hz < math.inf:
            raise ConfigurationError(
                "flicker_corner_hz must be non-negative and finite, "
                f"got {self.flicker_corner_hz!r}"
            )
        if not 0.0 < self.sample_rate < math.inf:
            raise ConfigurationError(
                f"sample_rate must be positive and finite, got {self.sample_rate!r}"
            )
        if not abs(self.half_gain_mismatch) < 1.0:
            raise ConfigurationError(
                f"half_gain_mismatch must be in (-1, 1), got {self.half_gain_mismatch!r}"
            )

    def ideal(self) -> "MemoryCellConfig":
        """Return a copy with every nonideality disabled.

        Useful as the reference in error-budget tests: an ideal cell is
        a pure (possibly inverting) sample delay.
        """
        return replace(
            self,
            gga=replace(self.gga, settling_tau_fraction=1e-6),
            transmission=replace(self.transmission, base_ratio=0.0),
            injection=replace(self.injection, full_injection_current=0.0),
            thermal_noise_rms=0.0,
            flicker_corner_hz=0.0,
            half_gain_mismatch=0.0,
        )

    def noiseless(self) -> "MemoryCellConfig":
        """Return a copy with noise disabled but static errors retained."""
        return replace(self, thermal_noise_rms=0.0, flicker_corner_hz=0.0)

    def erc_params(self) -> dict[str, float | bool]:
        """Return the electrical parameters the static rule checker reads.

        Composite designs splice this dictionary into their
        :class:`~repro.erc.graph.CircuitNode` parameters so the
        headroom, class-AB-bias and units rules
        (:mod:`repro.erc.rules`) can check the cell without
        constructing or simulating it.
        """
        return {
            "quiescent_current": self.quiescent_current,
            "sample_rate": self.sample_rate,
            "thermal_noise_rms": self.thermal_noise_rms,
            "flicker_corner_hz": self.flicker_corner_hz,
            "gga_bias_current": self.gga.bias_current,
            "cds_enabled": self.cds_enabled,
        }


class _NoiseFeed:
    """Chunked per-sample noise supply for the stepping loops.

    Pre-draws thermal (and optionally CDS-shaped flicker) samples in
    blocks so the per-sample cost is an array lookup, not an RNG call.
    """

    def __init__(self, config: MemoryCellConfig) -> None:
        self._config = config
        self._rng = np.random.default_rng(config.seed)
        self._buffer = np.zeros(0)
        self._index = 0
        self._flicker: FlickerNoiseSource | None = None
        if config.flicker_corner_hz > 0.0 and config.thermal_noise_rms > 0.0:
            self._flicker = FlickerNoiseSource(
                white_rms=config.thermal_noise_rms,
                corner_frequency=config.flicker_corner_hz,
                sample_rate=config.sample_rate,
                rng=self._rng,
            )

    def _refill(self) -> None:
        config = self._config
        if config.thermal_noise_rms > 0.0:
            chunk = self._rng.normal(0.0, config.thermal_noise_rms, size=_NOISE_CHUNK)
        else:
            chunk = np.zeros(_NOISE_CHUNK)
        if self._flicker is not None:
            flicker = self._flicker.sample(_NOISE_CHUNK)
            if config.cds_enabled:
                # First-difference CDS shaping: slow components cancel
                # between the two correlated samples.
                flicker = np.diff(flicker, prepend=flicker[0])
            chunk = chunk + flicker
        self._buffer = chunk
        self._index = 0

    def next(self) -> float:
        """Return the next noise sample in amperes."""
        if self._index >= self._buffer.shape[0]:
            self._refill()
        value = float(self._buffer[self._index])
        self._index += 1
        return value

    def take(self, count: int) -> np.ndarray:
        """Return the next ``count`` noise samples as one array.

        Bulk equivalent of :meth:`next` for the batch-execution engine:
        the returned array is bit-identical to ``count`` sequential
        :meth:`next` calls (refills happen at the same chunk
        boundaries), and the feed position advances identically, so
        scalar and batched consumers can be interleaved freely.
        """
        out = np.empty(count)
        filled = 0
        while filled < count:
            if self._index >= self._buffer.shape[0]:
                self._refill()
            available = self._buffer.shape[0] - self._index
            n = min(count - filled, available)
            out[filled : filled + n] = self._buffer[self._index : self._index + n]
            self._index += n
            filled += n
        return out


class ClassABMemoryCell(StagedDevice):
    """Stateful behavioural model of the Fig. 1 memory cell.

    Each call to :meth:`step` performs one sample-and-deliver clock
    period: the input differential current is stored (with all enabled
    error mechanisms applied) and the previously stored sample is
    delivered at the output.  A single cell therefore realises an
    (optionally inverting) one-period delay; the paper's delay line
    cascades two of them clocked on opposite phases.
    """

    def __init__(self, config: MemoryCellConfig | None = None) -> None:
        self.config = config if config is not None else MemoryCellConfig()
        self._noise = _NoiseFeed(self.config)
        self._stored = DifferentialSample(0.0, 0.0)
        self._slew_events = 0
        self._steps = 0
        self._probe: SignalProbe | None = None

    @property
    def stored(self) -> DifferentialSample:
        """Return the currently stored sample."""
        return self._stored

    def attach_telemetry(
        self,
        session: "TelemetrySession",
        name: str,
        full_scale: float | None = None,
        supply_voltage: float | None = None,
        clip_limit: float | None = None,
    ) -> "SignalProbe":
        """Register a probe on this cell's input differential current.

        The probe carries the metadata the dynamic headroom and
        class-AB rules (DYN002/DYN004) need: the quiescent current and
        the supply the cell runs from (the paper's 3.3 V default when
        omitted).  Returns the probe; :meth:`detach_telemetry` restores
        the zero-overhead untraced path.
        """
        from repro.config import SUPPLY_VOLTAGE

        probe = session.probe(
            name,
            full_scale=full_scale,
            clip_limit=clip_limit,
            kind="memory_cell",
            cell_class="class_ab",
            quiescent_current=self.config.quiescent_current,
            supply_voltage=(
                supply_voltage if supply_voltage is not None else SUPPLY_VOLTAGE
            ),
        )
        self._probe = probe
        return probe

    def detach_telemetry(self) -> None:
        """Drop the probe; subsequent steps observe nothing."""
        self._probe = None

    @property
    def slew_event_fraction(self) -> float:
        """Return the fraction of sampling events that entered slewing."""
        if self._steps == 0:
            return 0.0
        return self._slew_events / self._steps

    def reset(self) -> None:
        """Clear the stored state and statistics (noise RNG keeps running)."""
        self._stored = DifferentialSample(0.0, 0.0)
        self._slew_events = 0
        self._steps = 0

    def _store_half(self, previous: float, target: float) -> tuple[float, bool]:
        """Store one half-circuit current and report whether it slewed."""
        config = self.config
        device_n, _device_p = class_ab_split(target, config.quiescent_current)
        value = config.transmission.apply(target, device_n)
        value += config.injection.error_current(device_n)
        result = config.gga.settle(previous, value)
        return result.settled_current, result.slewed

    def step(self, sample: DifferentialSample) -> DifferentialSample:
        """Advance one clock period: deliver the held sample, store a new one.

        Parameters
        ----------
        sample:
            Input differential current for this period.

        Returns
        -------
        The previously stored sample, sign-inverted if the cell is
        configured as inverting.
        """
        config = self.config
        held = self._stored

        if self._probe is not None:
            self._probe.observe(sample.differential)

        pos, slew_pos = self._store_half(held.pos, sample.pos)
        neg, slew_neg = self._store_half(held.neg, sample.neg)

        if config.half_gain_mismatch != 0.0:
            pos *= 1.0 + 0.5 * config.half_gain_mismatch
            neg *= 1.0 - 0.5 * config.half_gain_mismatch

        noise = self._noise.next()
        pos += 0.5 * noise
        neg -= 0.5 * noise

        self._stored = DifferentialSample(pos, neg)
        self._steps += 1
        if slew_pos or slew_neg:
            self._slew_events += 1

        return -held if config.inverting else held

    def stages(self) -> tuple[Stage, ...]:
        """Declare the cell as its own one stage, sampling on PHI1."""
        return (Stage("cell", self, Phase.PHI1),)

    def _period(self, x: float) -> float:
        """Step a differential input with zero common mode; return the output."""
        return self.step(DifferentialSample.from_components(x)).differential


class ClassAMemoryCell:
    """Class-A baseline memory cell (Hughes-style, [2]).

    Differences from the class-AB cell that matter for the comparison:

    * the signal current **cannot exceed the bias current** -- the cell
      hard-clips at ``+/- bias_current`` (modulation index <= 1);
    * charge injection enjoys **no complementary cancellation** (the
      full residue model applies);
    * power is ``2 * V_dd * I_bias`` per half regardless of signal
      (see :mod:`repro.si.power`).

    The cell reuses the class-AB configuration object; its
    ``quiescent_current`` is reinterpreted as the class-A bias.
    """

    def __init__(self, config: MemoryCellConfig | None = None) -> None:
        base = config if config is not None else MemoryCellConfig()
        # Class A keeps the raw injection: no complementary pair to cancel it.
        self.config = replace(
            base,
            injection=replace(base.injection, complementary_cancellation=0.0),
        )
        self._noise = _NoiseFeed(self.config)
        self._stored = DifferentialSample(0.0, 0.0)
        self._clip_events = 0
        self._steps = 0
        self._probe: SignalProbe | None = None

    def attach_telemetry(
        self,
        session: "TelemetrySession",
        name: str,
        full_scale: float | None = None,
        supply_voltage: float | None = None,
        clip_limit: float | None = None,
    ) -> "SignalProbe":
        """Register a probe on this cell's input differential current.

        A class-A cell hard-clips at its bias current, so the clip
        limit defaults to the bias; ``cell_class`` metadata exempts it
        from the class-AB modulation-index rule.
        """
        from repro.config import SUPPLY_VOLTAGE

        probe = session.probe(
            name,
            full_scale=full_scale,
            clip_limit=clip_limit if clip_limit is not None else self.bias_current,
            kind="memory_cell",
            cell_class="class_a",
            quiescent_current=self.config.quiescent_current,
            supply_voltage=(
                supply_voltage if supply_voltage is not None else SUPPLY_VOLTAGE
            ),
        )
        self._probe = probe
        return probe

    def detach_telemetry(self) -> None:
        """Drop the probe; subsequent steps observe nothing."""
        self._probe = None

    @property
    def bias_current(self) -> float:
        """Return the class-A bias (the largest representable signal)."""
        return self.config.quiescent_current

    @property
    def clip_event_fraction(self) -> float:
        """Return the fraction of samples that hit the class-A clip."""
        if self._steps == 0:
            return 0.0
        return self._clip_events / self._steps

    def reset(self) -> None:
        """Clear the stored state and statistics."""
        self._stored = DifferentialSample(0.0, 0.0)
        self._clip_events = 0
        self._steps = 0

    def _store_half(self, previous: float, target: float) -> tuple[float, bool]:
        config = self.config
        bias = config.quiescent_current
        clipped = max(-bias, min(bias, target))
        did_clip = clipped != target
        device_current = bias + clipped
        value = config.transmission.apply(clipped, max(device_current, 1e-3 * bias))
        value += config.injection.error_current(max(device_current, 1e-3 * bias))
        result = config.gga.settle(previous, value)
        return result.settled_current, did_clip

    def step(self, sample: DifferentialSample) -> DifferentialSample:
        """Advance one clock period (see :meth:`ClassABMemoryCell.step`)."""
        held = self._stored
        if self._probe is not None:
            self._probe.observe(sample.differential)
        pos, clip_pos = self._store_half(held.pos, sample.pos)
        neg, clip_neg = self._store_half(held.neg, sample.neg)

        noise = self._noise.next()
        pos += 0.5 * noise
        neg -= 0.5 * noise

        self._stored = DifferentialSample(pos, neg)
        self._steps += 1
        if clip_pos or clip_neg:
            self._clip_events += 1

        return -held if self.config.inverting else held

    def run(self, differential_input: np.ndarray) -> np.ndarray:
        """Run the cell over an array of differential input currents."""
        data = np.asarray(differential_input, dtype=float)
        output = np.empty_like(data)
        for n in range(data.shape[0]):
            result = self.step(DifferentialSample.from_components(float(data[n])))
            output[n] = result.differential
        return output
