"""Tests for streaming signal probes against closed-form signals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TelemetryError
from repro.telemetry import SignalProbe


class TestStreamingStatistics:
    def test_sine_statistics_match_closed_form(self):
        # A full-period sine: min=-A, max=+A, mean=0, rms=A/sqrt(2).
        amplitude = 3e-6
        n = 4096
        values = amplitude * np.sin(2.0 * np.pi * np.arange(n) / n)
        probe = SignalProbe("sine", full_scale=6e-6)
        probe.observe_array(values)
        assert probe.count == n
        assert probe.minimum == pytest.approx(-amplitude, rel=1e-5)
        assert probe.maximum == pytest.approx(amplitude, rel=1e-5)
        assert probe.mean == pytest.approx(0.0, abs=1e-12)
        assert probe.rms == pytest.approx(amplitude / math.sqrt(2.0), rel=1e-6)
        assert probe.peak == pytest.approx(amplitude, rel=1e-5)
        assert probe.swing_fraction == pytest.approx(0.5, rel=1e-5)

    def test_scalar_and_array_paths_agree(self):
        values = np.linspace(-1.0, 2.0, 101)
        streaming = SignalProbe("scalar")
        for value in values:
            streaming.observe(float(value))
        batched = SignalProbe("batch")
        batched.observe_array(values)
        assert streaming.count == batched.count
        assert streaming.minimum == pytest.approx(batched.minimum)
        assert streaming.maximum == pytest.approx(batched.maximum)
        assert streaming.mean == pytest.approx(batched.mean)
        assert streaming.rms == pytest.approx(batched.rms)

    def test_accumulates_across_batches(self):
        probe = SignalProbe("acc")
        probe.observe_array(np.array([1.0, 2.0]))
        probe.observe_array(np.array([-4.0]))
        assert probe.count == 3
        assert probe.minimum == -4.0
        assert probe.maximum == 2.0
        assert probe.rms == pytest.approx(math.sqrt((1 + 4 + 16) / 3))

    def test_empty_probe_statistics(self):
        probe = SignalProbe("empty", full_scale=1e-6)
        assert probe.count == 0
        assert math.isnan(probe.minimum)
        assert math.isnan(probe.rms)
        assert probe.peak == 0.0
        assert probe.swing_fraction == 0.0

    def test_no_full_scale_means_no_swing(self):
        probe = SignalProbe("raw")
        probe.observe(1.0)
        assert probe.swing_fraction is None

    def test_no_waveform_storage(self):
        # The whole point: observing a long signal keeps O(1) state.
        probe = SignalProbe("stream")
        probe.observe_array(np.ones(100_000))
        assert not any(
            isinstance(getattr(probe, slot), np.ndarray)
            for slot in probe.__slots__
        )


class TestClipping:
    def test_clip_count_and_first_index(self):
        probe = SignalProbe("clip", clip_limit=1.0)
        probe.observe_array(np.array([0.5, 0.9, 1.5, 0.2, -1.2]))
        assert probe.clip_count == 2
        assert probe.first_clip_index == 2
        assert probe.clip_fraction == pytest.approx(2 / 5)

    def test_first_clip_index_spans_batches(self):
        probe = SignalProbe("clip", clip_limit=1.0)
        probe.observe_array(np.zeros(10))
        probe.observe_array(np.array([0.0, 2.0]))
        assert probe.first_clip_index == 11

    def test_scalar_clip_detection(self):
        probe = SignalProbe("clip", clip_limit=1.0)
        probe.observe(0.5)
        probe.observe(-3.0)
        assert probe.clip_count == 1
        assert probe.first_clip_index == 1

    def test_no_limit_never_clips(self):
        probe = SignalProbe("free")
        probe.observe_array(np.array([1e6]))
        assert probe.clip_count == 0
        assert probe.first_clip_index is None


class TestValidation:
    def test_rejects_non_positive_full_scale(self):
        with pytest.raises(TelemetryError):
            SignalProbe("bad", full_scale=0.0)

    def test_rejects_non_positive_clip_limit(self):
        with pytest.raises(TelemetryError):
            SignalProbe("bad", clip_limit=-1.0)

    def test_rejects_2d_observe_array(self):
        probe = SignalProbe("bad")
        with pytest.raises(TelemetryError):
            probe.observe_array(np.zeros((4, 4)))


class TestRecord:
    def test_as_record_is_flat_and_json_ready(self):
        probe = SignalProbe(
            "cell", full_scale=6e-6, clip_limit=8e-6, kind="memory_cell"
        )
        probe.observe_array(np.array([1e-6, -2e-6]))
        record = probe.as_record()
        assert record["name"] == "cell"
        assert record["count"] == 2
        assert record["meta"] == {"kind": "memory_cell"}
        assert record["swing_fraction"] == pytest.approx(2e-6 / 6e-6)


class TestMerge:
    def test_merge_equals_concatenated_observation(self):
        values = np.linspace(-2.0, 2.0, 501)
        whole = SignalProbe("whole", full_scale=4.0, clip_limit=1.5)
        whole.observe_array(values)
        left = SignalProbe("left", full_scale=4.0, clip_limit=1.5)
        right = SignalProbe("right", full_scale=4.0, clip_limit=1.5)
        left.observe_array(values[:200])
        right.observe_array(values[200:])
        left.merge(right)
        assert left.count == whole.count
        assert left.minimum == whole.minimum
        assert left.maximum == whole.maximum
        assert left.mean == pytest.approx(whole.mean)
        assert left.rms == pytest.approx(whole.rms)
        assert left.clip_count == whole.clip_count
        assert left.first_clip_index == whole.first_clip_index

    def test_merge_shifts_first_clip_index(self):
        left = SignalProbe("left", clip_limit=1.0)
        right = SignalProbe("right", clip_limit=1.0)
        left.observe_array(np.array([0.1, 0.2, 0.3]))
        right.observe_array(np.array([0.4, 9.0]))
        left.merge(right)
        assert left.first_clip_index == 4

    def test_merge_keeps_earlier_clip(self):
        left = SignalProbe("left", clip_limit=1.0)
        right = SignalProbe("right", clip_limit=1.0)
        left.observe_array(np.array([5.0]))
        right.observe_array(np.array([7.0]))
        left.merge(right)
        assert left.first_clip_index == 0
        assert left.clip_count == 2

    def test_merge_empty_is_identity(self):
        probe = SignalProbe("p")
        probe.observe_array(np.array([1.0, 2.0]))
        before = probe.as_record()
        probe.merge(SignalProbe("empty"))
        assert probe.as_record() == before

    def test_merge_into_empty(self):
        empty = SignalProbe("empty", clip_limit=1.0)
        full = SignalProbe("full", clip_limit=1.0)
        full.observe_array(np.array([0.5, 3.0]))
        empty.merge(full)
        assert empty.count == 2
        assert empty.first_clip_index == 1


class TestChunkingProperty:
    """Probe statistics must not depend on how a stream is chunked.

    This is the contract the batch engine's probe lowering rests on:
    feeding per-chunk arrays through :meth:`observe_array` (in stream
    order, any chunk sizes, including empty chunks) is equivalent to
    element-wise :meth:`observe`.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.floats(
                min_value=-1e-5,
                max_value=1e-5,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=1,
            max_size=64,
        ),
        cuts=st.lists(
            st.integers(min_value=0, max_value=64), max_size=6
        ),
        clip_limit=st.one_of(
            st.none(), st.floats(min_value=1e-7, max_value=1e-5)
        ),
    )
    def test_any_chunking_matches_elementwise(self, values, cuts, clip_limit):
        data = np.asarray(values, dtype=float)
        bounds = sorted({min(c, data.shape[0]) for c in cuts})
        edges = [0, *bounds, data.shape[0]]

        elementwise = SignalProbe("elementwise", clip_limit=clip_limit)
        for value in data:
            elementwise.observe(float(value))

        chunked = SignalProbe("chunked", clip_limit=clip_limit)
        for start, stop in zip(edges[:-1], edges[1:]):
            chunked.observe_array(data[start:stop])

        assert chunked.count == elementwise.count
        assert chunked.minimum == elementwise.minimum
        assert chunked.maximum == elementwise.maximum
        assert chunked.mean == pytest.approx(
            elementwise.mean, rel=1e-9, abs=1e-22
        )
        assert chunked.rms == pytest.approx(
            elementwise.rms, rel=1e-9, abs=1e-22
        )
        assert chunked.clip_count == elementwise.clip_count
        assert chunked.first_clip_index == elementwise.first_clip_index

    def test_empty_chunks_are_no_ops(self):
        probe = SignalProbe("empty-chunks")
        probe.observe_array(np.empty(0))
        assert probe.count == 0
        assert math.isnan(probe.minimum)
        probe.observe_array(np.array([2.0]))
        probe.observe_array(np.empty(0))
        assert probe.count == 1
        assert probe.minimum == 2.0

    def test_merge_from_and_into_empty_probe(self):
        target = SignalProbe("target")
        target.merge(SignalProbe("fresh"))
        assert target.count == 0
        assert math.isnan(target.rms)
        source = SignalProbe("source")
        source.observe_array(np.array([-1.0, 3.0]))
        target.merge(source)
        assert target.count == 2
        assert target.minimum == -1.0
        assert target.maximum == 3.0


#: The RMS of 200 probes, each fed one random 16,640-sample array (the
#: length of a 16K report run plus its settling samples), printed
#: bit-exactly.  One probe per array: a running sum over many arrays
#: would round away a last-bit difference in any one of them.
_PROBE_BITS = """
import numpy as np
from repro.telemetry.probes import SignalProbe

rng = np.random.default_rng(2026)
for index in range(200):
    probe = SignalProbe(f"p{index}")
    probe.observe_array(rng.standard_normal(16_640))
    print(probe.rms.hex(), probe.mean.hex())
"""


class TestThreadCountIndependence:
    def test_stats_bits_do_not_depend_on_blas_threads(self, fresh_python):
        # A BLAS reduction may split long sums across threads, so its bits
        # can depend on the thread count; on one CPU the two runs agree
        # whatever the reduction.
        outputs = set()
        for threads in ("1", "2"):
            done = fresh_python(
                "-c",
                _PROBE_BITS,
                env={
                    "OPENBLAS_NUM_THREADS": threads,
                    "OMP_NUM_THREADS": threads,
                    "MKL_NUM_THREADS": threads,
                },
            )
            assert done.returncode == 0, done.stderr
            outputs.add(done.stdout)
        assert len(outputs) == 1, "probe bits differ between 1 and 2 BLAS threads"
