"""EngineRunner integration tests: caching, parallel fan-out, recovery."""

import numpy as np
import pytest

from repro.core.engine import EngineResult
from repro.runtime import EngineRunner, engine_key

from helpers import TINY_SUITE, make_tiny_spec


@pytest.fixture
def runner(tmp_path):
    return EngineRunner(jobs=1, cache=True, cache_dir=tmp_path / "cache")


def test_run_benchmark_miss_then_hit(runner):
    spec = make_tiny_spec()
    first = runner.run_benchmark(spec, seed=2)
    assert isinstance(first, EngineResult)
    assert runner.stats.misses == 1
    assert runner.stats.stores == 1
    second = runner.run_benchmark(spec, seed=2)
    assert runner.stats.hits == 1
    assert runner.stats.stores == 1  # no recompute, no rewrite
    assert second.num_model_calls == first.num_model_calls
    np.testing.assert_allclose(second.samples, first.samples)
    assert len(second.rich_trace) == len(first.rich_trace)


def test_build_engine_caches_engine_objects(runner):
    """Crash recovery's warm path: the second build of the same spec loads
    the pickled DittoEngine instead of requantizing, and the rebuilt engine
    reproduces the original's samples bit-exactly."""
    spec = make_tiny_spec()
    first = runner.build_engine(spec, calibrate=False)
    assert runner.stats.misses == 1
    assert runner.stats.stores == 1
    second = runner.build_engine(spec, calibrate=False)
    assert runner.stats.hits == 1
    assert second is not first  # a fresh unpickled object, not the same one
    np.testing.assert_array_equal(
        first.run(record_trace=False, seed=4).samples,
        second.run(record_trace=False, seed=4).samples,
    )
    # A different build configuration misses.
    runner.build_engine(spec, calibrate=False, sampler="ddpm")
    assert runner.stats.misses == 2


def test_build_engine_resolves_names_and_steps(runner):
    engine = runner.build_engine("DDPM", num_steps=2, calibrate=False)
    assert len(engine.pipeline.sampler.timesteps) == 2
    assert (engine.config.num_steps, engine.config.calibrate) == (2, False)


def test_table1_engine_with_its_config_caches(tmp_path):
    """Table I specs carry lambda builders that do not pickle; the engine
    records only its config, so its build still caches and warm crash
    recovery stays warm."""
    runner = EngineRunner(cache_dir=tmp_path / "cache")
    first = runner.build_engine("DDPM", num_steps=2, calibrate=False)
    assert runner.stats.stores == 1
    second = runner.build_engine("DDPM", num_steps=2, calibrate=False)
    assert runner.stats.hits == 1
    assert second.config == first.config


def test_second_session_skips_engine_reconstruction(tmp_path):
    """A fresh runner over the same cache dir models a second sweep/session."""
    spec = make_tiny_spec()
    warm = EngineRunner(cache_dir=tmp_path / "cache")
    warm.run_benchmark(spec)
    cold = EngineRunner(cache_dir=tmp_path / "cache")
    result = cold.run_benchmark(spec)
    assert cold.stats.hits == 1
    assert cold.stats.misses == 0  # pure cache lookup, engine never rebuilt
    assert isinstance(result, EngineResult)


def test_run_suite_parallel_smoke(tmp_path):
    """Two tiny benchmarks fanned out across two worker processes."""
    runner = EngineRunner(jobs=2, cache=True, cache_dir=tmp_path / "cache")
    results = runner.run_suite(TINY_SUITE, seed=0)
    assert sorted(results) == ["tinyA", "tinyB"]
    for spec in TINY_SUITE:
        result = results[spec.name]
        assert result.num_model_calls == spec.num_steps
        assert result.rich_trace.num_steps() == spec.num_steps
        assert len(result.rich_trace) > 0
    # Worker-side stats were merged back into the parent runner.
    assert runner.stats.misses == 2
    assert runner.stats.stores == 2
    # Second suite run is served from cache without touching the pool.
    again = runner.run_suite(TINY_SUITE, seed=0)
    assert runner.stats.hits == 2
    np.testing.assert_allclose(
        again["tinyA"].samples, results["tinyA"].samples
    )


def test_parallel_results_match_serial(tmp_path):
    parallel = EngineRunner(jobs=2, cache_dir=tmp_path / "par")
    serial = EngineRunner(jobs=1, cache_dir=tmp_path / "ser")
    fanned = parallel.run_suite(TINY_SUITE, seed=4)
    looped = serial.run_suite(TINY_SUITE, seed=4)
    for name in ("tinyA", "tinyB"):
        np.testing.assert_allclose(fanned[name].samples, looped[name].samples)
        assert fanned[name].rich_trace.total_macs() == looped[name].rich_trace.total_macs()


def test_runner_recovers_from_corrupted_entry(runner):
    spec = make_tiny_spec()
    first = runner.run_benchmark(spec)
    key = engine_key(spec, seed=0, batch_size=1)
    path = runner.cache.path_for(key)
    assert path.exists()
    path.write_bytes(b"truncated garbage")
    second = runner.run_benchmark(spec)
    assert runner.stats.corrupt == 1
    np.testing.assert_allclose(second.samples, first.samples)


def test_no_cache_mode_always_recomputes(tmp_path):
    runner = EngineRunner(cache=False, cache_dir=tmp_path / "cache")
    spec = make_tiny_spec()
    runner.run_benchmark(spec)
    runner.run_benchmark(spec)
    assert runner.stats.hits == 0
    assert runner.stats.stores == 0
    assert not (tmp_path / "cache").exists()


def test_default_steps_share_key_with_explicit_default(runner):
    spec = make_tiny_spec(num_steps=3)
    runner.run_benchmark(spec)               # num_steps=None -> resolves to 3
    runner.run_benchmark(spec, num_steps=3)  # explicitly the spec default
    assert runner.stats.hits == 1
    assert runner.stats.stores == 1  # one entry, not a duplicate


def test_similarity_is_cached(runner):
    spec = make_tiny_spec()
    report = runner.similarity(spec)
    assert runner.stats.misses == 1
    again = runner.similarity(spec)
    assert runner.stats.hits == 1
    assert report.benchmark == "tinyA"
    assert again.avg_temporal == pytest.approx(report.avg_temporal)
    suite_reports = runner.similarity_suite([spec])
    assert runner.stats.hits == 2  # suite path reuses the same entry
    assert suite_reports["tinyA"].avg_temporal == pytest.approx(
        report.avg_temporal
    )


def test_run_batch_sizes_cached_fanout(tmp_path):
    """The batch-size axis fans out and caches like the benchmark axis."""
    runner = EngineRunner(jobs=2, cache=True, cache_dir=tmp_path / "cache")
    spec = make_tiny_spec()
    results = runner.run_batch_sizes(spec, batch_sizes=(2, 1), seed=3)
    assert sorted(results) == [1, 2]
    for size, result in results.items():
        assert result.samples.shape[0] == size
    assert runner.stats.misses == 2
    # Per-batch-element invariance: batch-2 row 0 is NOT generally row 0 of
    # the batch-1 run (different initial noise draw), but re-running batch-2
    # hits the cache and reproduces identical samples.
    again = runner.run_batch_sizes(spec, batch_sizes=(1, 2), seed=3)
    assert runner.stats.hits == 2
    np.testing.assert_array_equal(again[2].samples, results[2].samples)


def test_run_batch_sizes_validation(runner):
    with pytest.raises(ValueError):
        runner.run_batch_sizes(make_tiny_spec(), batch_sizes=(0, 2))
    with pytest.raises(ValueError):
        runner.run_batch_sizes(make_tiny_spec(), batch_sizes=())


def test_run_benchmark_accepts_table1_name(runner):
    result = runner.run_benchmark("IMG", num_steps=2, calibrate=False)
    assert result.benchmark == "IMG"
    assert result.num_model_calls == 2
    assert runner.run_benchmark("IMG", num_steps=2, calibrate=False).benchmark == "IMG"
    assert runner.stats.hits == 1
