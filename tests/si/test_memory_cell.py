"""Tests for the class-AB (and class-A baseline) memory cell."""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.si.differential import DifferentialSample
from repro.si.memory_cell import (
    ClassABMemoryCell,
    ClassAMemoryCell,
    MemoryCellConfig,
    class_ab_split,
)


class TestClassAbSplit:
    def test_difference_is_signal(self):
        i_n, i_p = class_ab_split(5e-6, 2e-6)
        assert i_n - i_p == pytest.approx(5e-6)

    def test_quiescent_point(self):
        i_n, i_p = class_ab_split(0.0, 2e-6)
        assert i_n == pytest.approx(2e-6)
        assert i_p == pytest.approx(2e-6)

    def test_both_devices_always_conduct(self):
        # The class-AB pair never cuts off -- for any signal both device
        # currents stay positive.
        for signal in (-50e-6, -5e-6, 0.0, 5e-6, 50e-6):
            i_n, i_p = class_ab_split(signal, 2e-6)
            assert i_n > 0.0
            assert i_p > 0.0

    def test_signal_exceeds_quiescent(self):
        # "the input current can be larger than the quiescent current"
        i_n, i_p = class_ab_split(20e-6, 2e-6)
        assert i_n > 20e-6
        assert i_p < 2e-6

    def test_geometric_mean_preserved(self):
        # Square-law translinear loop: i_n * i_p = I_Q^2 for all signals.
        for signal in (-10e-6, 0.0, 3e-6, 25e-6):
            i_n, i_p = class_ab_split(signal, 2e-6)
            assert i_n * i_p == pytest.approx((2e-6) ** 2, rel=1e-9)

    def test_rejects_bad_quiescent(self):
        with pytest.raises(ConfigurationError):
            class_ab_split(1e-6, 0.0)


@pytest.fixture
def ideal_cell(ideal_config):
    return ClassABMemoryCell(ideal_config)


@pytest.fixture
def paper_cell(cell_config):
    return ClassABMemoryCell(cell_config)


class TestIdealCellBehaviour:
    def test_is_inverting_delay(self, ideal_cell):
        first = ideal_cell.step(DifferentialSample.from_components(1e-6))
        second = ideal_cell.step(DifferentialSample.from_components(2e-6))
        assert first.differential == pytest.approx(0.0)
        assert second.differential == pytest.approx(-1e-6, rel=1e-6)

    def test_noninverting_option(self, ideal_config):
        cell = ClassABMemoryCell(replace(ideal_config, inverting=False))
        cell.step(DifferentialSample.from_components(1e-6))
        out = cell.step(DifferentialSample.from_components(0.0))
        assert out.differential == pytest.approx(1e-6, rel=1e-6)

    def test_run_delays_by_one(self, ideal_cell):
        x = np.array([1.0e-6, 2.0e-6, 3.0e-6, 4.0e-6])
        y = ideal_cell.run(x)
        np.testing.assert_allclose(y[1:], -x[:-1], rtol=1e-6)

    def test_reset_clears_state(self, ideal_cell):
        ideal_cell.step(DifferentialSample.from_components(5e-6))
        ideal_cell.reset()
        out = ideal_cell.step(DifferentialSample.from_components(0.0))
        assert out.differential == 0.0

    def test_stored_property(self, ideal_cell):
        ideal_cell.step(DifferentialSample.from_components(3e-6))
        assert ideal_cell.stored.differential == pytest.approx(3e-6, rel=1e-6)


class TestErrorMechanisms:
    def test_transmission_error_attenuates(self, quiet_cell_config):
        # Isolate the transmission error: disable the injection residue
        # (whose sign is independent and can mask the attenuation).
        config = replace(
            quiet_cell_config,
            injection=replace(
                quiet_cell_config.injection, full_injection_current=0.0
            ),
        )
        cell = ClassABMemoryCell(config)
        cell.step(DifferentialSample.from_components(4e-6))
        out = cell.step(DifferentialSample.from_components(0.0))
        assert abs(out.differential) < 4e-6
        assert abs(out.differential) > 0.99 * 4e-6

    def test_thermal_noise_visible(self, cell_config):
        cell = ClassABMemoryCell(cell_config)
        outputs = cell.run(np.zeros(4096))
        assert float(np.std(outputs[1:])) == pytest.approx(
            cell_config.thermal_noise_rms, rel=0.15
        )

    def test_noise_reproducible_with_seed(self, cell_config):
        a = ClassABMemoryCell(cell_config).run(np.zeros(256))
        b = ClassABMemoryCell(cell_config).run(np.zeros(256))
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self, cell_config):
        a = ClassABMemoryCell(cell_config).run(np.zeros(256))
        b = ClassABMemoryCell(replace(cell_config, seed=99)).run(np.zeros(256))
        assert not np.array_equal(a[1:], b[1:])

    def test_mismatch_converts_cm_to_differential(self, quiet_cell_config):
        matched = ClassABMemoryCell(quiet_cell_config)
        mismatched = ClassABMemoryCell(
            replace(quiet_cell_config, half_gain_mismatch=0.02)
        )
        cm_input = DifferentialSample.from_components(0.0, 2e-6)
        matched.step(cm_input)
        mismatched.step(cm_input)
        out_matched = matched.step(DifferentialSample.from_components(0.0))
        out_mismatched = mismatched.step(DifferentialSample.from_components(0.0))
        assert abs(out_matched.differential) < 1e-12
        assert abs(out_mismatched.differential) > 1e-9

    def test_slew_fraction_counts(self, quiet_cell_config):
        # Steps far beyond the GGA bias must register as slew events.
        cell = ClassABMemoryCell(quiet_cell_config)
        big = quiet_cell_config.gga.bias_current * 10.0
        for k in range(8):
            sign = 1.0 if k % 2 == 0 else -1.0
            cell.step(DifferentialSample.from_components(sign * 2.0 * big))
        assert cell.slew_event_fraction > 0.5

    def test_no_slew_for_small_signals(self, quiet_cell_config):
        cell = ClassABMemoryCell(quiet_cell_config)
        for _ in range(8):
            cell.step(DifferentialSample.from_components(1e-7))
        assert cell.slew_event_fraction == 0.0

    def test_even_order_cancellation(self, quiet_cell_config):
        # Fully differential: the differential error for +x equals the
        # negated error for -x (odd symmetry), so even harmonics cancel.
        cell_pos = ClassABMemoryCell(quiet_cell_config)
        cell_neg = ClassABMemoryCell(quiet_cell_config)
        cell_pos.step(DifferentialSample.from_components(4e-6))
        cell_neg.step(DifferentialSample.from_components(-4e-6))
        out_pos = cell_pos.step(DifferentialSample.from_components(0.0))
        out_neg = cell_neg.step(DifferentialSample.from_components(0.0))
        assert out_pos.differential == pytest.approx(-out_neg.differential, rel=1e-9)


class TestConfigHelpers:
    def test_ideal_disables_everything(self, cell_config):
        ideal = cell_config.ideal()
        assert ideal.thermal_noise_rms == 0.0
        assert ideal.transmission.base_ratio == 0.0
        assert ideal.injection.full_injection_current == 0.0

    def test_noiseless_keeps_static_errors(self, cell_config):
        quiet = cell_config.noiseless()
        assert quiet.thermal_noise_rms == 0.0
        assert quiet.transmission.base_ratio == cell_config.transmission.base_ratio

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"quiescent_current": 0.0},
            {"thermal_noise_rms": -1e-9},
            {"flicker_corner_hz": -1.0},
            {"sample_rate": 0.0},
            {"half_gain_mismatch": 1.0},
            # NaN passes a plain "< 0" test; a NaN noise rms ran noiseless.
            {"quiescent_current": float("nan")},
            {"quiescent_current": float("inf")},
            {"thermal_noise_rms": float("nan")},
            {"thermal_noise_rms": float("inf")},
            {"flicker_corner_hz": float("nan")},
            {"flicker_corner_hz": float("inf")},
            {"sample_rate": float("nan")},
            {"sample_rate": float("inf")},
            {"half_gain_mismatch": float("nan")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            MemoryCellConfig(**kwargs)


class TestClassABaseline:
    def test_clips_beyond_bias(self, quiet_cell_config):
        # Class A cannot represent signals beyond its bias current.
        cell = ClassAMemoryCell(quiet_cell_config)
        bias = cell.bias_current
        cell.step(DifferentialSample.from_components(10.0 * bias))
        out = cell.step(DifferentialSample.from_components(0.0))
        # The clipped level plus the (uncancelled) injection residue.
        assert abs(out.differential) <= 2.0 * bias * 1.05
        assert cell.clip_event_fraction > 0.0

    def test_class_ab_does_not_clip(self, quiet_cell_config):
        cell = ClassABMemoryCell(quiet_cell_config)
        big = 10.0 * quiet_cell_config.quiescent_current
        cell.step(DifferentialSample.from_components(big))
        out = cell.step(DifferentialSample.from_components(0.0))
        assert abs(out.differential) > 0.9 * big

    def test_small_signals_pass(self, quiet_cell_config):
        cell = ClassAMemoryCell(quiet_cell_config)
        small = 0.25 * cell.bias_current
        cell.step(DifferentialSample.from_components(small))
        out = cell.step(DifferentialSample.from_components(0.0))
        assert out.differential == pytest.approx(-small, rel=0.05)
        assert cell.clip_event_fraction == 0.0

    def test_injection_worse_than_class_ab(self, quiet_cell_config):
        # Class A has no complementary cancellation: its injection
        # residue must exceed the class-AB cell's.
        assert (
            ClassAMemoryCell(quiet_cell_config).config.injection.residual_at_quiescent
            > ClassABMemoryCell(quiet_cell_config).config.injection.residual_at_quiescent
        )

    def test_reset(self, quiet_cell_config):
        cell = ClassAMemoryCell(quiet_cell_config)
        cell.step(DifferentialSample.from_components(1e-6))
        cell.reset()
        out = cell.step(DifferentialSample.from_components(0.0))
        assert out.differential == 0.0

    def test_run_interface(self, quiet_cell_config):
        cell = ClassAMemoryCell(quiet_cell_config)
        y = cell.run(np.array([1e-7, 2e-7, 3e-7]))
        assert y.shape == (3,)
