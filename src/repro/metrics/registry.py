"""The metric registry: every paper evaluation number, declared once.

The registry is the single source of truth for what this reproduction
measures on every run: the Fig. 5-7 spectral numbers (SNR/THD/SNDR and
the ENOB they imply), the Table 1 delay-line errors, the Table 2
dynamic-range and power rows, the DYN001-DYN004 dynamic-rule event
counts from :mod:`repro.telemetry`, and the wall-time/throughput
figures the ROADMAP's "fast as the hardware allows" goal is tracked
by.

:func:`registry_for` returns a registry whose specs carry the paper's
published reference value for the requested design (the paper reports
58 dB SNR for the modulators but 50 dB for the delay line, so the
specs differ per design even though the metric names are shared).
"""

from __future__ import annotations

from repro.errors import ConfigurationError, MetricsError
from repro.metrics.records import Direction, MetricRecord, MetricSpec

__all__ = ["MetricRegistry", "registry_for", "BASE_SPECS"]


def _spec(
    name: str,
    unit: str,
    description: str,
    direction: Direction,
    tolerance: float | None,
    gate: bool = True,
) -> MetricSpec:
    return MetricSpec(
        name=name,
        unit=unit,
        description=description,
        direction=direction,
        tolerance=tolerance,
        gate=gate,
    )


#: Design-independent metric declarations: unit, direction and the
#: baseline drift tolerance each metric is gated with.
BASE_SPECS: tuple[MetricSpec, ...] = (
    _spec("thd_db", "dB", "total harmonic distortion below the carrier",
          Direction.LOWER, 1.5),
    _spec("snr_db", "dB", "in-band SNR, harmonics excluded",
          Direction.HIGHER, 1.0),
    _spec("sndr_db", "dB", "Signal/(Noise+THD), the paper's Fig. 7 y-axis",
          Direction.HIGHER, 0.75),
    _spec("enob_bits", "bits", "effective bits implied by the measured SNDR",
          Direction.HIGHER, 0.15),
    _spec("signal_amplitude_ua", "uA", "recovered fundamental peak amplitude",
          Direction.TARGET, 0.25),
    _spec("dr_db", "dB", "dynamic range from the SNDR-vs-level fit",
          Direction.HIGHER, 2.0),
    _spec("dr_bits", "bits", "dynamic range expressed in bits (Table 2 row)",
          Direction.HIGHER, 0.35),
    _spec("power_mw", "mW", "modeled system power dissipation",
          Direction.TARGET, 0.2),
    _spec("power_per_cell_uw", "uW", "modeled class-AB power per memory cell",
          Direction.TARGET, 10.0),
    _spec("gain_error", "1", "delay-line gain error vs the ideal unit gain",
          Direction.TARGET, 0.005),
    _spec("offset_ua", "uA", "delay-line output offset current",
          Direction.TARGET, 0.05),
    _spec("noise_rms_na", "nA", "wideband output noise floor",
          Direction.TARGET, 6.0),
    _spec("snr_pp_db", "dB", "SNR in the paper's peak-to-peak convention",
          Direction.HIGHER, 1.0),
    _spec("dyn001_clip_events", "events", "DYN001 clip rule events raised",
          Direction.LOWER, 0.0),
    _spec("dyn002_headroom_events", "events", "DYN002 headroom rule events raised",
          Direction.LOWER, 0.0),
    _spec("dyn003_cmff_events", "events", "DYN003 CMFF-residual rule events raised",
          Direction.LOWER, 0.0),
    _spec("dyn004_classab_events", "events", "DYN004 class-AB rule events raised",
          Direction.LOWER, 0.0),
    _spec("wall_s", "s", "wall time of the measurement span",
          Direction.LOWER, None, gate=False),
    _spec("samples_per_s", "1/s", "device simulation throughput",
          Direction.HIGHER, None, gate=False),
)


class MetricRegistry:
    """Declared metric specs plus the records measured against them.

    A registry is built once per run (usually via :func:`registry_for`),
    handed to the extractors / the :class:`~repro.systems.testbench.TestBench`,
    and finally drained into a run manifest.

    Parameters
    ----------
    design:
        Design label the registry reports under.
    specs:
        Metric declarations; defaults to :data:`BASE_SPECS`.
    """

    def __init__(
        self,
        design: str = "generic",
        specs: tuple[MetricSpec, ...] | None = None,
    ) -> None:
        self.design = design
        self._specs: dict[str, MetricSpec] = {}
        self._records: list[MetricRecord] = []
        for spec in specs if specs is not None else BASE_SPECS:
            self.declare(spec)

    def declare(self, spec: MetricSpec) -> MetricSpec:
        """Register a metric declaration.

        Raises
        ------
        MetricsError
            If a different spec is already declared under the name.
        """
        existing = self._specs.get(spec.name)
        if existing is not None and existing != spec:
            raise MetricsError(
                f"metric {spec.name!r} is already declared with different fields"
            )
        self._specs[spec.name] = spec
        return spec

    def spec(self, name: str) -> MetricSpec:
        """Return the declaration for a metric name.

        Raises
        ------
        MetricsError
            If the name was never declared.
        """
        try:
            return self._specs[name]
        except KeyError:
            raise MetricsError(
                f"unknown metric {name!r}; declared: {', '.join(sorted(self._specs))}"
            ) from None

    @property
    def specs(self) -> tuple[MetricSpec, ...]:
        """Return every declared spec, in declaration order."""
        return tuple(self._specs.values())

    def record(
        self, name: str, value: float, provenance: str | None = None
    ) -> MetricRecord:
        """Measure a declared metric and file the record.

        Re-recording a name replaces the earlier record (a re-measured
        run keeps one value per metric), preserving file order.
        """
        record = self.spec(name).record(value, provenance=provenance)
        for index, existing in enumerate(self._records):
            if existing.name == name:
                self._records[index] = record
                return record
        self._records.append(record)
        return record

    @property
    def records(self) -> tuple[MetricRecord, ...]:
        """Return every filed record, in file order."""
        return tuple(self._records)

    def get(self, name: str) -> MetricRecord | None:
        """Return the filed record for a name, or None."""
        for record in self._records:
            if record.name == name:
                return record
        return None

    def clear(self) -> None:
        """Drop the filed records (the declarations stay)."""
        self._records.clear()


def registry_for(design: str) -> MetricRegistry:
    """Return a registry whose specs carry ``design``'s paper values.

    The values are the design's :attr:`~repro.designs.Design.references`
    in the design catalog; the registry reports under the canonical
    name.

    Raises
    ------
    MetricsError
        If the design is not in the catalog.  Use
        ``MetricRegistry(design)`` directly for ad-hoc designs without
        published numbers.
    """
    # Imported here: the catalog loads the cell models, which the
    # metric declarations themselves never need.
    from repro.designs import resolve

    try:
        entry = resolve(design)
    except ConfigurationError as exc:
        raise MetricsError(str(exc)) from None
    specs = []
    for base in BASE_SPECS:
        reference = entry.references.get(base.name)
        if reference is None:
            specs.append(base)
        else:
            value, half_width = reference
            specs.append(
                MetricSpec(
                    name=base.name,
                    unit=base.unit,
                    description=base.description,
                    direction=base.direction,
                    tolerance=base.tolerance,
                    paper_value=value,
                    paper_tolerance=half_width,
                    gate=base.gate,
                )
            )
    return MetricRegistry(entry.name, specs=tuple(specs))
