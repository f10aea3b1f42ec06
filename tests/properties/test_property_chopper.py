"""Property-based tests for the chopper loop's z -> -z identity."""

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from repro.config import MODULATOR_CLOCK, ideal_cell_config
from repro.deltasigma.chopper_modulator import ChopperStabilizedSIModulator
from repro.deltasigma.modulator2 import SIModulator2
from repro.runtime.kernels import build_spec, loop_transfer

CONFIG = ideal_cell_config(sample_rate=MODULATOR_CLOCK)
TAPS = 12
#: Eq. (3)'s taps: STF z^-2 and NTF (1 - z^-1)^2.
EQ3_STF = np.pad([0.0, 0.0, 1.0], (0, TAPS - 3))
EQ3_NTF = np.pad([1.0, -2.0, 1.0], (0, TAPS - 3))

coefficients = st.floats(min_value=0.1, max_value=2.0)


def projections(a1, a2, b2):
    """Return the (STF, NTF) of SIModulator2 and of the chopper at one point."""
    return [
        loop_transfer(build_spec(loop(CONFIG, a1=a1, a2=a2, b2=b2)), TAPS)
        for loop in (SIModulator2, ChopperStabilizedSIModulator)
    ]


class TestLoopEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(a1=coefficients, a2=coefficients, b2=coefficients)
    @example(a1=0.5, a2=1.0, b2=1.0)  # the catalog point
    def test_chopper_loop_equals_integrator_loop(self, a1, a2, b2):
        # For ANY coefficients, the chopper's output-chopped transfers
        # equal the Fig. 3(a) loop's: the structural identity behind
        # Fig. 3(b), read off the two devices' own state spaces.
        integrator, chopper = projections(a1, a2, b2)
        np.testing.assert_allclose(chopper, integrator, rtol=1e-12, atol=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(a1=coefficients, a2=coefficients)
    @example(a1=0.5, a2=1.0)  # the catalog point
    @example(a1=0.5, a2=2.0)
    @example(a1=0.25, a2=4.0)
    def test_eq3_for_any_valid_scaling(self, a1, a2):
        # Any b2 = 2 a1 a2 realises Eq. (3) exactly in both loops: the
        # derived quantizer gain 2 / b2 absorbs the scale of state 2.
        for stf, ntf in projections(a1, a2, 2.0 * a1 * a2):
            np.testing.assert_allclose(stf, EQ3_STF, atol=1e-9)
            np.testing.assert_allclose(ntf, EQ3_NTF, atol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(a1=coefficients, a2=coefficients, b2=coefficients)
    @example(a1=0.5, a2=1.0, b2=2.0)
    def test_other_scalings_are_not_eq3(self, a1, a2, b2):
        # Off b2 = 2 a1 a2 the signal tap at z^-2 is 2 a1 a2 / b2, not 1.
        assume(abs(b2 - 2.0 * a1 * a2) > 0.01 * b2)
        for stf, _ in projections(a1, a2, b2):
            assert abs(stf[2] - 1.0) > 1e-3
