"""Test bench: drive a device with a tone, measure like the paper did.

One object ties together stimulus generation, the device under test and
the Blackman-window FFT metrology, so every bench and example measures
in exactly the same way (64K-point FFT by default, matching "a 64K-point
FFT using a blackman window").

Before simulating, the bench runs the static electrical-rule checker
(:mod:`repro.erc`) on any device that exposes a ``describe_graph()``
hook and refuses to waste a 64K-sample run on a design with blocking
violations; pass ``erc=False`` to opt out.

The runtime counterpart is the ``telemetry=`` knob: pass a
:class:`~repro.telemetry.session.TelemetrySession` and the bench opens
``measure -> stimulus / device / analysis`` spans, auto-attaches any
device exposing ``attach_telemetry()``, and evaluates the dynamic
rules (:mod:`repro.telemetry.monitor`) over the observed signals after
each measurement.  The default (``telemetry=None``) runs the exact
untraced code path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import AnalysisError
from repro.analysis.metrics import ToneMetrics, measure_tone
from repro.analysis.spectrum import Spectrum, compute_spectrum
from repro.analysis.windows import WindowKind
from repro.erc.checker import check_design
from repro.observability.instruments import get_registry
from repro.systems.stimulus import SineStimulus, coherent_frequency
from repro.telemetry.session import TelemetrySession

#: Bench measurement wall-time buckets (seconds).
_MEASURE_BUCKETS: tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    60.0,
)

__all__ = ["BenchMeasurement", "TestBench"]

DeviceUnderTest = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class BenchMeasurement:
    """A complete single-tone bench measurement.

    Attributes
    ----------
    spectrum:
        The output spectrum.
    metrics:
        Tone metrics extracted from the spectrum.
    stimulus:
        The stimulus that was applied.
    output:
        The raw analysed output samples.
    """

    spectrum: Spectrum
    metrics: ToneMetrics
    stimulus: SineStimulus
    output: np.ndarray

    @property
    def snr_db(self) -> float:
        """Return the measured SNR in dB."""
        return self.metrics.snr_db

    @property
    def thd_db(self) -> float:
        """Return the measured THD in dB relative to the carrier."""
        return self.metrics.thd_db

    @property
    def sndr_db(self) -> float:
        """Return the measured SNDR in dB."""
        return self.metrics.sndr_db


class TestBench:
    """Single-tone measurement bench.

    (The name refers to a laboratory bench; ``__test__ = False`` stops
    pytest from trying to collect it as a test class.)

    Every :meth:`measure` call accounts one ``repro.bench.measurements``
    increment and one ``repro.bench.measure_seconds`` observation
    (labeled by device type) into the current instrument registry
    (:func:`~repro.observability.instruments.get_registry`).

    Parameters
    ----------
    sample_rate:
        Clock frequency in hertz.
    n_samples:
        FFT length (64K to match the paper).
    bandwidth:
        Analysis bandwidth in hertz; None means full Nyquist.
    window_kind:
        FFT window; Blackman by default.
    settle_samples:
        Leading samples discarded before analysis.
    erc:
        Run the static electrical-rule checker on devices that expose
        ``describe_graph()`` before simulating them, and refuse (raise
        :class:`~repro.errors.ERCError`) when the design has blocking
        violations.  Set to False to simulate a known-violating design
        anyway (ablation studies do this deliberately).
    telemetry:
        Optional telemetry session.  When set, :meth:`measure` traces
        each measurement (spans for stimulus generation, the device
        run and the spectral analysis), auto-attaches devices exposing
        ``attach_telemetry()`` and evaluates the dynamic rules after
        the run.  None (the default) disables tracing entirely.
    """

    __test__ = False

    def __init__(
        self,
        sample_rate: float,
        n_samples: int = 1 << 16,
        bandwidth: float | None = None,
        window_kind: WindowKind = WindowKind.BLACKMAN,
        settle_samples: int = 256,
        erc: bool = True,
        telemetry: TelemetrySession | None = None,
    ) -> None:
        if sample_rate <= 0.0:
            raise AnalysisError(f"sample_rate must be positive, got {sample_rate!r}")
        if n_samples < 16:
            raise AnalysisError(f"n_samples must be >= 16, got {n_samples!r}")
        if settle_samples < 0:
            raise AnalysisError(
                f"settle_samples must be non-negative, got {settle_samples!r}"
            )
        self.sample_rate = sample_rate
        self.n_samples = n_samples
        self.bandwidth = bandwidth
        self.window_kind = window_kind
        self.settle_samples = settle_samples
        self.erc = erc
        self.telemetry = telemetry

    def preflight(self, device: DeviceUnderTest) -> None:
        """Statically check a device before simulating it.

        Devices without a ``describe_graph()`` hook (plain callables)
        are skipped -- ERC can only check declared structure.

        Raises
        ------
        ERCError
            If the device's design graph has ERROR-severity violations
            and the bench was built with ``erc=True``.
        """
        if self.erc and hasattr(device, "describe_graph"):
            check_design(device)

    def make_stimulus(self, amplitude: float, frequency: float) -> SineStimulus:
        """Return a coherent tone stimulus at the bench's settings."""
        return SineStimulus(
            amplitude=amplitude,
            frequency=coherent_frequency(frequency, self.sample_rate, self.n_samples),
            sample_rate=self.sample_rate,
        )

    def measure(
        self,
        device: DeviceUnderTest,
        amplitude: float,
        frequency: float,
        extra_input: np.ndarray | None = None,
    ) -> BenchMeasurement:
        """Drive the device with a tone and measure the output spectrum.

        Parameters
        ----------
        device:
            Callable mapping the stimulus array to the output array.
        amplitude:
            Tone peak amplitude in amperes.
        frequency:
            Requested tone frequency; snapped to the nearest coherent
            bin.
        extra_input:
            Optional additive disturbance (e.g. an interferer from
            :func:`repro.systems.stimulus.interferer_tone`), of length
            ``n_samples + settle_samples``.

        Raises
        ------
        AnalysisError
            If the device returns the wrong number of samples, or the
            disturbance is not a real-valued 1-D array of the right
            length.
        ERCError
            If pre-flight checking is enabled and the device's design
            graph has blocking violations (see :meth:`preflight`).
        """
        self.preflight(device)
        total = self.n_samples + self.settle_samples
        stimulus = self.make_stimulus(amplitude, frequency)
        session = self.telemetry
        started = time.perf_counter()

        if session is None:
            drive = self._make_drive(stimulus, extra_input, total)
            output = self._run_device(device, drive, total)
            measurement = self._analyse(stimulus, output)
            self._account_measurement(device, started)
            return measurement

        if hasattr(device, "attach_telemetry"):
            device.attach_telemetry(session)
        with session.span(
            "measure",
            samples=self.n_samples,
            device=type(device).__name__,
            amplitude=amplitude,
            frequency=stimulus.frequency,
        ):
            with session.span("stimulus", samples=total):
                drive = self._make_drive(stimulus, extra_input, total)
            with session.span("device", samples=total):
                output = self._run_device(device, drive, total)
            with session.span("analysis", samples=self.n_samples):
                measurement = self._analyse(stimulus, output)
        session.evaluate_rules()
        self._account_measurement(device, started)
        return measurement

    def _account_measurement(
        self, device: DeviceUnderTest, started: float
    ) -> None:
        """Account one finished measurement into the current registry."""
        registry = get_registry()
        name = type(device).__name__
        registry.counter(
            "repro.bench.measurements", help="completed bench measurements"
        ).inc(device=name)
        registry.histogram(
            "repro.bench.measure_seconds",
            buckets=_MEASURE_BUCKETS,
            help="wall time per bench measurement",
        ).observe(time.perf_counter() - started, device=name)

    def _make_drive(
        self,
        stimulus: SineStimulus,
        extra_input: np.ndarray | None,
        total: int,
    ) -> np.ndarray:
        """Generate the drive array, validating any extra disturbance."""
        drive = stimulus.generate(total)
        if extra_input is None:
            return drive
        extra = np.asarray(extra_input)
        if extra.ndim != 1:
            raise AnalysisError(
                f"extra_input must be 1-D, got shape {extra.shape}"
            )
        if np.iscomplexobj(extra):
            raise AnalysisError(
                "extra_input must be real-valued current samples, got "
                f"complex dtype {extra.dtype}"
            )
        try:
            extra = extra.astype(float)
        except (TypeError, ValueError) as exc:
            raise AnalysisError(
                f"extra_input must be numeric, got dtype {extra.dtype}"
            ) from exc
        if extra.shape[0] != total:
            raise AnalysisError(
                f"extra_input must have {total} samples, got {extra.shape[0]}"
            )
        return drive + extra

    def _run_device(
        self, device: DeviceUnderTest, drive: np.ndarray, total: int
    ) -> np.ndarray:
        """Run the device and validate its output length."""
        output = np.asarray(device(drive), dtype=float)
        if output.shape[0] != total:
            raise AnalysisError(
                f"device returned {output.shape[0]} samples, expected {total}"
            )
        return output

    def _analyse(
        self, stimulus: SineStimulus, output: np.ndarray
    ) -> BenchMeasurement:
        """Window, transform and extract metrics from the raw output."""
        analysed = output[self.settle_samples :]
        spectrum = compute_spectrum(
            analysed, self.sample_rate, window_kind=self.window_kind
        )
        metrics = measure_tone(
            spectrum,
            fundamental_frequency=stimulus.frequency,
            bandwidth=self.bandwidth,
        )
        return BenchMeasurement(
            spectrum=spectrum,
            metrics=metrics,
            stimulus=stimulus,
            output=analysed,
        )
