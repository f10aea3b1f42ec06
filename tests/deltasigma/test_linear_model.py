"""Tests verifying Eq. (3) on the linearised loops.

A loop's linear model is the catalog device's own state space
(``state_matrices``), closed through the linearised quantizer by
``loop_transfer``; these tests read Eq. (3) off it.
"""

import numpy as np
import pytest

from repro.deltasigma.modulator2 import SIModulator2
from repro.designs import resolve
from repro.runtime.kernels import (
    KernelUnsupported,
    build_spec,
    loop_transfer,
    state_matrices,
)

N_TAPS = 32
#: Eq. (3): STF z^-2 and NTF (1 - z^-1)^2.
EQ3_STF = np.pad([0.0, 0.0, 1.0], (0, N_TAPS - 3))
EQ3_NTF = np.pad([1.0, -2.0, 1.0], (0, N_TAPS - 3))


def transfer(name, length=N_TAPS):
    """Return the catalog design ``name``'s (STF, NTF) taps."""
    return loop_transfer(build_spec(resolve(name).build()), length)


def respond(name, x):
    """Return the linearised loop's output for input ``x`` alone."""
    stf, _ = transfer(name, len(x))
    return np.convolve(x, stf)[: len(x)]


class TestReferenceResponses:
    def test_stf_taps(self):
        stf, _ = transfer("modulator2", 3)
        np.testing.assert_allclose(stf, [0.0, 0.0, 1.0], atol=1e-12)

    def test_ntf_taps(self):
        _, ntf = transfer("modulator2", 3)
        np.testing.assert_allclose(ntf, [1.0, -2.0, 1.0], atol=1e-12)

    def test_ntf_has_double_zero_at_dc(self):
        # (1 - z^-1)^2 evaluated at z = 1 is 0, and so is its slope.
        _, taps = transfer("modulator2")
        assert float(np.sum(taps)) == pytest.approx(0.0, abs=1e-12)
        assert float(np.sum(taps * np.arange(N_TAPS))) == pytest.approx(0.0, abs=1e-12)


class TestIntegratorTopology:
    def test_eq3_exact(self):
        stf, ntf = transfer("modulator2")
        np.testing.assert_allclose(stf, EQ3_STF, atol=1e-12)
        np.testing.assert_allclose(ntf, EQ3_NTF, atol=1e-12)

    def test_signal_delayed_two_samples(self):
        x = np.random.default_rng(0).normal(size=64)
        np.testing.assert_allclose(respond("modulator2", x)[2:], x[:-2], atol=1e-12)

    def test_alternative_scaling_still_eq3(self, cell_config):
        # Any b2 = 2 a1 a2 realises the same transfer: the derived
        # quantizer gain 2 / b2 absorbs the scale of state 2.
        for a1, a2, b2 in [(0.25, 4.0, 2.0), (0.5, 0.5, 0.5)]:
            modulator = SIModulator2(cell_config, a1=a1, a2=a2, b2=b2)
            stf, ntf = loop_transfer(build_spec(modulator), N_TAPS)
            np.testing.assert_allclose(stf, EQ3_STF, atol=1e-12)
            np.testing.assert_allclose(ntf, EQ3_NTF, atol=1e-12)

    def test_wrong_coefficients_break_eq3(self, cell_config):
        modulator = SIModulator2(cell_config, a1=0.5, a2=1.0, b2=2.0)
        stf, _ = loop_transfer(build_spec(modulator), N_TAPS)
        assert np.max(np.abs(stf - EQ3_STF)) > 1e-3

    def test_superposition(self):
        # The state-space loop closed step by step, driven by an input x
        # and a quantisation error e together, gives STF * x + NTF * e:
        # the recorded taps are the loop's whole linear response.
        spec = build_spec(resolve("modulator2").build())
        a, b, c, _ = state_matrices(spec)
        gain = 2.0  # 2 / b2 at the catalog point
        x, e = np.random.default_rng(0).normal(size=(2, 64))
        state = np.zeros(2)
        y = np.empty(64)
        for n in range(64):
            y[n] = gain * (c[0] @ state) + e[n]
            state = a @ state + b @ [x[n], y[n]]
        stf, ntf = loop_transfer(spec, 64)
        expected = np.convolve(x, stf)[:64] + np.convolve(e, ntf)[:64]
        np.testing.assert_allclose(y, expected, atol=1e-12)


class TestChopperTopology:
    def test_eq3_exact(self):
        stf, ntf = transfer("chopper")
        np.testing.assert_allclose(stf, EQ3_STF, atol=1e-12)
        np.testing.assert_allclose(ntf, EQ3_NTF, atol=1e-12)

    def test_both_topologies_same_signal_response(self):
        # "Linear analysis ... reveal that both circuits of Fig. 3
        # realize the second-order delta-sigma modulators."
        x = np.random.default_rng(1).normal(size=128)
        np.testing.assert_allclose(respond("chopper", x), respond("modulator2", x), atol=1e-10)

    def test_sine_passes_with_two_sample_delay(self):
        n = 256
        x = np.sin(2.0 * np.pi * 5.0 * np.arange(n) / n)
        y = respond("chopper", x)
        np.testing.assert_allclose(y[2:], x[:-2], atol=1e-10)


class TestValidation:
    def test_rejects_bad_topology(self):
        spec = build_spec(resolve("modulator2").build())
        bogus = type(spec)(kind="banana", stages=spec.stages)
        with pytest.raises(KernelUnsupported):
            loop_transfer(bogus, 8)
