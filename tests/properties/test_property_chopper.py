"""Property-based tests for the chopper loop's z -> -z identity."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.deltasigma.linear_model import LinearLoopModel

signal_arrays = arrays(
    dtype=np.float64,
    shape=st.integers(min_value=4, max_value=64),
    elements=st.floats(min_value=-10.0, max_value=10.0, width=64),
)


class TestLoopEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(x=signal_arrays)
    def test_chopper_loop_equals_integrator_loop(self, x):
        # For ANY input, the chopper topology's output-chopped stream
        # equals the integrator topology's output: the structural
        # identity behind Fig. 3(b).
        y_int = LinearLoopModel(topology="integrator").run(x)
        y_chop = LinearLoopModel(topology="chopper").run(x)
        np.testing.assert_allclose(y_chop, y_int, atol=1e-9 * max(1.0, float(np.max(np.abs(x)))))

    @settings(max_examples=25, deadline=None)
    @given(
        a1=st.floats(min_value=0.1, max_value=2.0),
        s2=st.floats(min_value=0.1, max_value=2.0),
    )
    def test_eq3_for_any_valid_scaling(self, a1, s2):
        # Any a1*a2 = 1 (with b2 = 2) realises Eq. (3) exactly in the
        # linearised loop.
        model = LinearLoopModel(a1=a1, a2=1.0 / a1, b2=2.0)
        stf = model.signal_impulse_response(12)
        expected = np.zeros(12)
        expected[2] = 1.0
        np.testing.assert_allclose(stf, expected, atol=1e-9)
