"""Tests for the single-tone test bench."""

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.systems.testbench import TestBench as Bench


class TestMeasurement:
    def test_ideal_passthrough_measures_cleanly(self):
        bench = Bench(sample_rate=1e6, n_samples=1 << 12, settle_samples=64)
        result = bench.measure(lambda x: x, amplitude=1e-6, frequency=5e3)
        assert result.metrics.signal_amplitude == pytest.approx(1e-6, rel=0.01)
        assert result.snr_db > 100.0

    def test_known_noise_floor(self):
        rng = np.random.default_rng(0)

        def noisy(x):
            return x + rng.normal(0.0, 1e-8, size=x.shape)

        bench = Bench(sample_rate=1e6, n_samples=1 << 14, settle_samples=0)
        result = bench.measure(noisy, amplitude=1e-6, frequency=5e3)
        # SNR = 20 log10((1e-6/sqrt2)/1e-8) = 37 dB.
        assert result.snr_db == pytest.approx(37.0, abs=1.0)

    def test_known_distortion(self):
        def distorting(x):
            return x + 0.01 * x**2 / 1e-6

        bench = Bench(sample_rate=1e6, n_samples=1 << 13, settle_samples=0)
        result = bench.measure(distorting, amplitude=1e-6, frequency=5e3)
        # Second harmonic amplitude = 0.01 * A^2/(2 * 1e-6) = 5e-9,
        # i.e. -46 dB below the carrier.
        assert result.thd_db == pytest.approx(-46.0, abs=1.0)

    def test_bandwidth_passed_through(self):
        rng = np.random.default_rng(1)

        def noisy(x):
            return x + rng.normal(0.0, 1e-8, size=x.shape)

        wide = Bench(sample_rate=1e6, n_samples=1 << 13, settle_samples=0)
        narrow = Bench(
            sample_rate=1e6, n_samples=1 << 13, bandwidth=125e3, settle_samples=0
        )
        snr_wide = wide.measure(noisy, 1e-6, 5e3).snr_db
        snr_narrow = narrow.measure(noisy, 1e-6, 5e3).snr_db
        assert snr_narrow - snr_wide == pytest.approx(6.0, abs=1.5)

    def test_stimulus_is_coherent(self):
        bench = Bench(sample_rate=2.45e6, n_samples=1 << 12)
        stim = bench.make_stimulus(1e-6, 2e3)
        cycles = stim.frequency * (1 << 12) / 2.45e6
        assert cycles == pytest.approx(round(cycles))

    def test_extra_input_is_added(self):
        bench = Bench(sample_rate=1e6, n_samples=1 << 12, settle_samples=0)
        captured = {}

        def probe(x):
            captured["max"] = float(np.max(np.abs(x)))
            return x

        extra = np.full(1 << 12, 5e-6)
        bench.measure(probe, amplitude=1e-6, frequency=5e3, extra_input=extra)
        assert captured["max"] > 5e-6

    def test_settle_samples_discarded(self):
        bench = Bench(sample_rate=1e6, n_samples=1 << 12, settle_samples=100)

        def transient(x):
            out = x.copy()
            out[:50] += 1.0
            return out

        result = bench.measure(transient, amplitude=1e-6, frequency=5e3)
        assert result.snr_db > 100.0

    def test_output_length_recorded(self):
        bench = Bench(sample_rate=1e6, n_samples=1 << 12, settle_samples=32)
        result = bench.measure(lambda x: x, 1e-6, 5e3)
        assert result.output.shape[0] == 1 << 12


class TestValidation:
    def test_rejects_bad_rate(self):
        with pytest.raises(AnalysisError):
            Bench(sample_rate=0.0)

    def test_rejects_short_fft(self):
        with pytest.raises(AnalysisError):
            Bench(sample_rate=1e6, n_samples=8)

    def test_rejects_negative_settle(self):
        with pytest.raises(AnalysisError):
            Bench(sample_rate=1e6, settle_samples=-1)

    def test_rejects_wrong_device_length(self):
        bench = Bench(sample_rate=1e6, n_samples=1 << 12)
        with pytest.raises(AnalysisError):
            bench.measure(lambda x: x[:-1], 1e-6, 5e3)

    def test_rejects_wrong_extra_length(self):
        bench = Bench(sample_rate=1e6, n_samples=1 << 12)
        with pytest.raises(AnalysisError):
            bench.measure(lambda x: x, 1e-6, 5e3, extra_input=np.zeros(4))

    def test_rejects_2d_extra_input(self):
        bench = Bench(sample_rate=1e6, n_samples=1 << 12, settle_samples=0)
        bad = np.zeros((1 << 12, 1))
        with pytest.raises(AnalysisError, match="1-D"):
            bench.measure(lambda x: x, 1e-6, 5e3, extra_input=bad)

    def test_rejects_complex_extra_input(self):
        bench = Bench(sample_rate=1e6, n_samples=1 << 12, settle_samples=0)
        bad = np.zeros(1 << 12, dtype=complex)
        with pytest.raises(AnalysisError, match="complex"):
            bench.measure(lambda x: x, 1e-6, 5e3, extra_input=bad)

    def test_rejects_non_numeric_extra_input(self):
        bench = Bench(sample_rate=1e6, n_samples=1 << 12, settle_samples=0)
        bad = np.array(["a"] * (1 << 12))
        with pytest.raises(AnalysisError, match="numeric"):
            bench.measure(lambda x: x, 1e-6, 5e3, extra_input=bad)

    def test_integer_extra_input_still_accepted(self):
        bench = Bench(sample_rate=1e6, n_samples=1 << 12, settle_samples=0)
        extra = np.zeros(1 << 12, dtype=np.int64)
        result = bench.measure(lambda x: x, 1e-6, 5e3, extra_input=extra)
        assert result.snr_db > 100.0


class TestTelemetryKnob:
    def _session(self):
        from repro.telemetry import TelemetrySession

        return TelemetrySession("bench-test")

    def test_disabled_by_default(self):
        bench = Bench(sample_rate=1e6, n_samples=1 << 12)
        assert bench.telemetry is None

    def test_measure_opens_span_hierarchy(self):
        session = self._session()
        bench = Bench(
            sample_rate=1e6, n_samples=1 << 12, settle_samples=0, telemetry=session
        )
        bench.measure(lambda x: x, amplitude=1e-6, frequency=5e3)
        assert len(session.roots) == 1
        root = session.roots[0]
        assert root.name == "measure"
        assert [child.name for child in root.children] == [
            "stimulus",
            "device",
            "analysis",
        ]
        assert root.duration_s is not None and root.duration_s > 0.0
        assert root.samples == 1 << 12

    def test_measure_auto_attaches_device(self):
        from repro.config import delay_line_cell_config
        from repro.si.delay_line import DelayLine

        session = self._session()
        bench = Bench(
            sample_rate=5e6,
            n_samples=1 << 12,
            settle_samples=0,
            telemetry=session,
        )
        line = DelayLine(delay_line_cell_config(), n_cells=2)
        bench.measure(line, amplitude=8e-6, frequency=5e3)
        assert "delay_line.cell[0]" in session.probes
        assert session.probes["delay_line.cell[0]"].count == 1 << 12
        # The bench evaluates the dynamic rules after the run.
        assert session.events == ()
        assert session.gate.ok

    def test_traced_output_matches_untraced(self):
        from repro.config import delay_line_cell_config
        from repro.si.delay_line import DelayLine

        config = delay_line_cell_config(seed=7)
        session = self._session()
        traced_bench = Bench(
            sample_rate=5e6, n_samples=1 << 12, settle_samples=0, telemetry=session
        )
        plain_bench = Bench(sample_rate=5e6, n_samples=1 << 12, settle_samples=0)
        traced = traced_bench.measure(
            DelayLine(config, n_cells=2), amplitude=8e-6, frequency=5e3
        )
        plain = plain_bench.measure(
            DelayLine(config, n_cells=2), amplitude=8e-6, frequency=5e3
        )
        np.testing.assert_array_equal(traced.output, plain.output)
