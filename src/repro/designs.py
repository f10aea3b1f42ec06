"""The paper's designs, declared once.

One frozen :class:`Design` per named design holds everything a verb
needs to know about it: the canonical name and its aliases, a one-line
description, the builder, the paper operating point, the published
reference values and the ERC annotations.  ``repro erc``, ``trace``,
``report``, ``sweep``, ``stats``, ``history`` and ``trend``, the
simulation service, the sweep workers, the metric registry and the
bench all look designs up here, through :func:`resolve`.

A design without an operating point (``biquad-cascade``) is ERC-only:
it declares a circuit graph but the paper measured no number on it,
so the runnable verbs refuse it (:attr:`Design.point`).

The device classes are imported inside the builders, so reading the
catalog -- a parser's choices, a name lookup -- builds nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.config import (
    DELAY_LINE_BANDWIDTH,
    DELAY_LINE_CLOCK,
    MODULATOR_CLOCK,
    OVERSAMPLING_RATIO,
    SIGNAL_BANDWIDTH,
    SUPPLY_VOLTAGE,
    delay_line_cell_config,
    paper_cell_config,
)
from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.erc.graph import CircuitGraph
    from repro.si.memory_cell import MemoryCellConfig

__all__ = ["Design", "OperatingPoint", "DESIGNS", "resolve", "design_names", "check_knobs"]


@dataclass(frozen=True)
class OperatingPoint:
    """The paper's measurement setup of one design.

    Attributes
    ----------
    sample_rate:
        Clock frequency in hertz.
    bandwidth:
        Analysis bandwidth in hertz.
    amplitude:
        Nominal stimulus peak amplitude in amperes.
    frequency:
        Nominal stimulus frequency in hertz.
    """

    sample_rate: float
    bandwidth: float
    amplitude: float
    frequency: float


def check_knobs(noise_scale: float, mismatch: float) -> None:
    """Refuse degradation knobs that no cell configuration can take.

    ``noise_scale`` must be a finite number >= 0 and ``mismatch`` a
    number in (-1, 1); NaN fails both, so it is refused instead of
    running as a noiseless (or mismatch-free) device.  The values are
    checked, never coerced, so a valid request keeps its exact params,
    cache key and digest.  ``build_report``, every
    :class:`~repro.runtime.sweeps.SweepSpec` and the service's request
    normalization all call this one check.

    Raises
    ------
    ConfigurationError
        Naming the refused knob and value.
    """
    for name, value in (("noise_scale", noise_scale), ("mismatch", mismatch)):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigurationError(f"{name} must be a number, got {value!r}")
    if not 0.0 <= noise_scale < math.inf:
        raise ConfigurationError(
            f"noise_scale must be non-negative and finite, got {noise_scale!r}"
        )
    if not -1.0 < mismatch < 1.0:
        raise ConfigurationError(f"mismatch must be in (-1, 1), got {mismatch!r}")


@dataclass(frozen=True)
class Design:
    """One named design and every view the verbs take of it.

    Attributes
    ----------
    name:
        Canonical name; ledger entries, manifests and cache keys use it.
    description:
        One-line description, printed by ``repro trace``.
    config:
        Factory of the design's undegraded cell configuration.
    device:
        Constructor of the device from a cell configuration.
    operating_point:
        The paper operating point, or None for an ERC-only design.
    aliases:
        Other accepted names (``mod2`` for ``modulator2``).
    references:
        The paper's published values as (value, acceptance half-width)
        by metric name.  The bands mirror the shape criteria the
        benchmark suite asserts, so a run that passes the benches also
        matches the paper here.
    supply_voltage, peak_current, oversampling_ratio:
        The ERC annotations :meth:`graph` adds: the supply the rules
        check headroom against, the declared peak signal current (None
        when the device derives it, as the loops do from their full
        scale) and the oversampling ratio (None for a Nyquist-rate
        design).
    """

    name: str
    description: str
    config: Callable[[], MemoryCellConfig]
    device: Callable[[MemoryCellConfig], Any]
    operating_point: OperatingPoint | None
    aliases: tuple[str, ...] = ()
    references: Mapping[str, tuple[float, float]] = field(default_factory=dict)
    supply_voltage: float = SUPPLY_VOLTAGE
    peak_current: float | None = None
    oversampling_ratio: int | None = None

    @property
    def point(self) -> OperatingPoint:
        """Return the operating point of a runnable design.

        Raises
        ------
        ConfigurationError
            If the design is ERC-only; the message names the runnable
            designs.
        """
        if self.operating_point is None:
            raise ConfigurationError(
                f"design {self.name!r} is ERC-only (no operating point); "
                f"runnable: {', '.join(sorted(design_names(runnable=True)))}"
            )
        return self.operating_point

    def build(self, noise_scale: float = 1.0, mismatch: float = 0.0) -> Any:
        """Return a fresh device, with the degradation knobs applied.

        ``noise_scale`` multiplies the cells' thermal-noise rms and
        ``mismatch`` sets their half-circuit gain mismatch -- how
        ``repro report`` proves its regression gate fires, and how a
        sweep worker rebuilds the device of a degraded spec.  At the
        defaults the paper configuration is used unchanged.
        """
        config = self.config()
        if noise_scale != 1.0 or mismatch != 0.0:
            config = replace(
                config,
                thermal_noise_rms=config.thermal_noise_rms * noise_scale,
                half_gain_mismatch=mismatch,
            )
        return self.device(config)

    def graph(self) -> CircuitGraph:
        """Return the design's circuit graph with its ERC annotations."""
        device = self.build()
        if self.peak_current is None:
            graph: CircuitGraph = device.describe_graph()
        else:
            graph = device.describe_graph(peak_signal_current=self.peak_current)
        graph.params["supply_voltage"] = self.supply_voltage
        if self.oversampling_ratio is not None:
            graph.params["oversampling_ratio"] = self.oversampling_ratio
        return graph


def _delay_line(config: MemoryCellConfig) -> Any:
    from repro.si.delay_line import DelayLine

    return DelayLine(config, n_cells=2)


def _modulator1(config: MemoryCellConfig) -> Any:
    from repro.deltasigma.modulator1 import SIModulator1

    return SIModulator1(cell_config=config)


def _modulator2(config: MemoryCellConfig) -> Any:
    from repro.deltasigma.modulator2 import SIModulator2

    return SIModulator2(cell_config=config)


def _chopper(config: MemoryCellConfig) -> Any:
    from repro.deltasigma.chopper_modulator import ChopperStabilizedSIModulator

    return ChopperStabilizedSIModulator(cell_config=config)


def _biquad_cascade(config: MemoryCellConfig) -> Any:
    from repro.si.cascade import BiquadCascade

    return BiquadCascade(
        center_frequency=100e3, n_sections=3, sample_rate=5e6, config=config
    )


_modulator_config = partial(paper_cell_config, sample_rate=MODULATOR_CLOCK)

#: The modulators' operating point: -6 dB (3 uA) at 2 kHz.
_MODULATOR_POINT = OperatingPoint(
    sample_rate=MODULATOR_CLOCK,
    bandwidth=SIGNAL_BANDWIDTH,
    amplitude=3e-6,
    frequency=2e3,
)

#: The references the two Fig. 3 loops share; only their THD differs.
_MODULATOR_REFERENCES: dict[str, tuple[float, float]] = {
    "snr_db": (58.0, 8.0),
    "signal_amplitude_ua": (3.0, 0.3),
    "dr_db": (63.0, 8.0),
    "dr_bits": (10.5, 1.3),
    "power_mw": (3.2, 2.5),
}

#: Every named design, by canonical name.
DESIGNS: dict[str, Design] = {
    entry.name: entry
    for entry in (
        Design(
            name="delay-line",
            description="Table 1 delay line at 8 uA / 5 kHz",
            config=delay_line_cell_config,
            device=_delay_line,
            operating_point=OperatingPoint(
                sample_rate=DELAY_LINE_CLOCK,
                bandwidth=DELAY_LINE_BANDWIDTH,
                amplitude=8e-6,
                frequency=5e3,
            ),
            references={
                "thd_db": (-50.0, 6.0),
                "snr_pp_db": (50.0, 4.0),
                "noise_rms_na": (33.0, 8.0),
                "power_mw": (0.7, 0.8),
            },
            peak_current=8e-6,
        ),
        Design(
            name="modulator1",
            description="first-order baseline modulator at -6 dB / 2 kHz",
            config=_modulator_config,
            device=_modulator1,
            operating_point=_MODULATOR_POINT,
            aliases=("mod1",),
            # This library's baseline, not a chip the paper
            # characterised: no published reference values.
            oversampling_ratio=OVERSAMPLING_RATIO,
        ),
        Design(
            name="modulator2",
            description="Fig. 3(a) second-order modulator at -6 dB / 2 kHz",
            config=_modulator_config,
            device=_modulator2,
            operating_point=_MODULATOR_POINT,
            aliases=("mod2",),
            references={"thd_db": (-61.0, 9.0), **_MODULATOR_REFERENCES},
            oversampling_ratio=OVERSAMPLING_RATIO,
        ),
        Design(
            name="chopper",
            description="Fig. 3(b) chopper-stabilised modulator at -6 dB / 2 kHz",
            config=_modulator_config,
            device=_chopper,
            operating_point=_MODULATOR_POINT,
            references={"thd_db": (-62.0, 9.0), **_MODULATOR_REFERENCES},
            oversampling_ratio=OVERSAMPLING_RATIO,
        ),
        Design(
            name="biquad-cascade",
            description="sixth-order 100 kHz Butterworth band-pass SI filter",
            config=paper_cell_config,
            device=_biquad_cascade,
            operating_point=None,
            peak_current=2e-6,
        ),
    )
}

_BY_NAME: dict[str, Design] = {
    name: entry
    for entry in DESIGNS.values()
    for name in (entry.name, *entry.aliases)
}


def design_names(runnable: bool = False) -> list[str]:
    """Return the accepted names: canonical ones sorted, then aliases sorted.

    With ``runnable`` set, ERC-only designs are left out.
    """
    entries = [
        entry
        for entry in DESIGNS.values()
        if not runnable or entry.operating_point is not None
    ]
    return sorted(entry.name for entry in entries) + sorted(
        alias for entry in entries for alias in entry.aliases
    )


def resolve(name: str) -> Design:
    """Return the design a name or alias refers to.

    Raises
    ------
    ConfigurationError
        If no design has that name; the message lists the accepted
        names.
    """
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown design {name!r}; available: {', '.join(sorted(_BY_NAME))}"
        ) from None
