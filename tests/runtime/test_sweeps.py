"""run_sweep: parity with the scalar sweep, sharding, caching, spans."""

import pytest

from repro.analysis.sweeps import run_amplitude_sweep
from repro.config import (
    MODULATOR_CLOCK,
    MODULATOR_FULL_SCALE,
    SIGNAL_BANDWIDTH,
    paper_cell_config,
)
from repro.deltasigma import SIModulator2
from repro.errors import ConfigurationError
from repro.runtime.cache import ResultCache
from repro.runtime.executor import SweepExecutor
from repro.runtime.sweeps import (
    DEFAULT_LEVELS_DB,
    MAX_LEVEL_DB,
    SweepSpec,
    run_sweep,
    sweep_spec_for_design,
)
from repro.systems.stimulus import coherent_frequency
from repro.telemetry.session import TelemetrySession

N_SAMPLES = 1 << 13
LEVELS = (-40.0, -20.0, -10.0)


def _spec(**overrides) -> SweepSpec:
    base = dict(
        design="modulator2",
        levels_db=LEVELS,
        full_scale=MODULATOR_FULL_SCALE,
        signal_frequency=coherent_frequency(2e3, MODULATOR_CLOCK, N_SAMPLES),
        sample_rate=MODULATOR_CLOCK,
        n_samples=N_SAMPLES,
        bandwidth=SIGNAL_BANDWIDTH,
        settle_samples=64,
    )
    base.update(overrides)
    return SweepSpec(**base)


class TestScalarParity:
    def test_matches_run_amplitude_sweep_exactly(self):
        spec = _spec()
        batch = run_sweep(spec)
        modulator = SIModulator2(
            cell_config=paper_cell_config(sample_rate=MODULATOR_CLOCK)
        )
        scalar = run_amplitude_sweep(
            modulator,
            levels_db=list(LEVELS),
            full_scale=spec.full_scale,
            signal_frequency=spec.signal_frequency,
            sample_rate=spec.sample_rate,
            n_samples=spec.n_samples,
            bandwidth=spec.bandwidth,
            settle_samples=spec.settle_samples,
        )
        assert batch.metrics == scalar.metrics
        assert batch.sndr_db.tobytes() == scalar.sndr_db.tobytes()
        assert batch.snr_db.tobytes() == scalar.snr_db.tobytes()
        assert batch.thd_db.tobytes() == scalar.thd_db.tobytes()

    def test_sharding_is_invisible(self):
        spec = _spec()
        whole = run_sweep(spec, executor=SweepExecutor(jobs=1))
        sharded = run_sweep(
            spec, executor=SweepExecutor(jobs=1, chunk_size=1)
        )
        assert whole.metrics == sharded.metrics

    def test_empty_levels_rejected(self):
        # Refused when the spec is built, before any run or queue.
        with pytest.raises(ConfigurationError, match="at least one level"):
            _spec(levels_db=())

    def test_unknown_design_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown design"):
            _spec(design="not-a-design")

    def test_levels_above_the_ceiling_rejected(self):
        with pytest.raises(ConfigurationError, match="at most 40 dBFS"):
            _spec(levels_db=(-10.0, 5000.0))
        assert _spec(levels_db=(MAX_LEVEL_DB,)).levels_db == (MAX_LEVEL_DB,)

    def test_an_alias_is_stored_by_its_name(self):
        # One spelling per design, so both share a cache key.
        spec = _spec(design="mod2")
        assert spec.design == "modulator2"
        assert spec.cache_key() == _spec().cache_key()

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("noise_scale", float("nan")),
            ("noise_scale", float("inf")),
            ("noise_scale", -1.0),
            ("mismatch", float("nan")),
            ("mismatch", 1.0),
        ],
    )
    def test_unusable_knob_refused(self, knob, value):
        # A NaN noise_scale used to pass every check and run noiseless,
        # reporting the noise-free SNR as a success.
        with pytest.raises(ConfigurationError, match=f"^{knob} must be"):
            run_sweep(_spec(levels_db=(-6.0,), **{knob: value}))
        with pytest.raises(ConfigurationError, match=f"^{knob} must be"):
            sweep_spec_for_design("mod2", **{knob: value})


class TestCacheIntegration:
    def test_hit_reconstructs_bit_for_bit(self, tmp_path):
        spec = _spec()
        cache = ResultCache(tmp_path)
        cold = run_sweep(spec, cache=cache)
        warm = run_sweep(spec, cache=cache)
        assert cache.misses == 1 and cache.hits == 1
        assert warm.metrics == cold.metrics
        assert warm.sndr_db.tobytes() == cold.sndr_db.tobytes()

    def test_spec_change_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep(_spec(), cache=cache)
        run_sweep(_spec(noise_scale=2.0), cache=cache)
        assert cache.hits == 0 and cache.misses == 2

    def test_degraded_spec_changes_result(self, tmp_path):
        clean = run_sweep(_spec())
        noisy = run_sweep(_spec(noise_scale=4.0))
        assert clean.metrics != noisy.metrics


class TestTelemetry:
    def test_sweep_span_grafts_shards(self):
        session = TelemetrySession("sweep-span")
        run_sweep(_spec(), telemetry=session)
        sweep_spans = [s for s in session.roots if s.name == "sweep"]
        assert sweep_spans
        assert sweep_spans[0].attrs.get("cache") == "off"
        shards = [
            child
            for child in sweep_spans[0].children
            if child.name.startswith("shard:")
        ]
        assert shards and shards[0].name == "shard:0"
        # Grafted worker spans carry real worker-side wall time plus
        # the engine/queue-wait/lane bookkeeping.
        assert shards[0].duration_s is not None and shards[0].duration_s > 0.0
        assert shards[0].attrs.get("engine") in {"kernel", "batch", "scalar"}
        assert "queue_wait_ms" in shards[0].attrs
        assert shards[0].attrs.get("n_lanes") == len(_spec().levels_db)

    def test_cache_hit_span(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep(_spec(), cache=cache)
        session = TelemetrySession("sweep-hit")
        run_sweep(_spec(), cache=cache, telemetry=session)
        sweep_spans = [s for s in session.roots if s.name == "sweep"]
        assert sweep_spans and sweep_spans[0].attrs.get("cache") == "hit"


class TestSpecFactory:
    def test_defaults_mirror_report(self):
        spec = sweep_spec_for_design("modulator2")
        assert spec.levels_db == DEFAULT_LEVELS_DB
        assert spec.n_samples == 1 << 15  # half the 64K main measurement
        assert spec.design == "modulator2"

    def test_alias_resolves(self):
        assert sweep_spec_for_design("mod2").design == "modulator2"

    def test_floor_at_8k(self):
        assert sweep_spec_for_design("mod2", n_samples=1 << 10).n_samples == 1 << 13

    def test_cache_key_is_complete(self):
        key = _spec().cache_key()
        for field in (
            "design",
            "levels_db",
            "n_samples",
            "noise_scale",
            "mismatch",
            "window",
        ):
            assert field in key


class TestWorker:
    def test_shard_offsets_are_invisible(self):
        # A tail shard starting at lane_offset=1 must reproduce the
        # corresponding lanes of the whole-sweep shard exactly.
        from repro.runtime.executor import ShardContext
        from repro.runtime.sweeps import _run_lane_chunk

        spec = _spec()
        context = ShardContext(0, 1, 0, len(LEVELS))
        whole = _run_lane_chunk(spec, list(LEVELS), context, engine="batch")
        assert whole.engine == "batch"
        tail_context = ShardContext(1, 2, 1, len(LEVELS) - 1)
        tail = _run_lane_chunk(
            spec, list(LEVELS[1:]), tail_context, engine="batch"
        )
        assert tail.metrics == whole.metrics[1:]

    def test_scalar_fallback_with_lane_offset(self, monkeypatch):
        # Disable the batch lowering to force the per-lane fallback and
        # check it lands on the same numbers (same noise slicing).  The
        # design lowers, so the fallback runs (and is labelled) kernel.
        import repro.runtime.batch as batch_module
        from repro.runtime.batch import BatchUnsupported
        from repro.runtime.executor import ShardContext
        from repro.runtime.sweeps import _run_lane_chunk

        spec = _spec()
        context = ShardContext(0, 1, 0, len(LEVELS))
        batch = _run_lane_chunk(spec, list(LEVELS), context, engine="batch")

        def refuse(*args, **kwargs):
            raise BatchUnsupported("forced scalar path")

        monkeypatch.setattr(batch_module, "batch_runner_for", refuse)
        scalar = _run_lane_chunk(spec, list(LEVELS), context, engine="batch")
        assert scalar.engine == "kernel"
        assert scalar.metrics == batch.metrics
        tail_context = ShardContext(1, 2, 1, len(LEVELS) - 1)
        tail = _run_lane_chunk(
            spec, list(LEVELS[1:]), tail_context, engine="batch"
        )
        assert tail.engine == "kernel"
        assert tail.metrics == batch.metrics[1:]
