"""Per-phase bench breakdown: the profiler and the schema-3 record shape.

``repro bench`` must attribute cold wall clock to phases (build:
calibration / trajectory / quantize / norm / im2col; run: norm / im2col)
and report *medians across repeats* for every headline and phase timing -
the statistic ``scripts/check_bench.py`` gates on.
"""

import statistics
import time

import numpy as np

from repro import profiling
from repro.bench import bench_benchmark
from repro.nn import functional as F


# -- the ambient profiler ----------------------------------------------------

def test_phase_accumulates_only_when_active():
    with profiling.profile() as prof:
        with profiling.phase("alpha"):
            time.sleep(0.002)
        with profiling.phase("alpha"):
            pass
        profiling.record("beta", 1.5)
    assert prof.buckets["alpha"] >= 0.002
    assert prof.buckets["beta"] == 1.5
    # Outside any profile() the hooks are no-ops, not errors.
    with profiling.phase("gamma"):
        pass
    profiling.record("gamma", 1.0)
    assert profiling.active() is None


def test_profile_nesting_restores_previous():
    with profiling.profile() as outer:
        profiling.record("x", 1.0)
        with profiling.profile() as inner:
            profiling.record("x", 2.0)
        assert profiling.active() is outer
        profiling.record("x", 0.5)
    assert outer.buckets["x"] == 1.5
    assert inner.buckets["x"] == 2.0


def test_hot_kernels_report_into_active_profiler():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 8, 8, 8))
    with profiling.profile() as prof:
        F.group_norm(x, 4)
        F.layer_norm(rng.standard_normal((2, 4, 16)))
        F.im2col_t(x, 3, 1, 1)
        F.im2col(x, 3, 1, 1)
    assert prof.buckets["norm"] > 0.0
    assert prof.buckets["im2col"] > 0.0
    # im2col_t additionally attributes its cost per stride class (PR 10):
    # seconds plus an element counter, feeding the check_bench parity gate.
    assert prof.buckets["im2col_s1"] > 0.0
    assert prof.buckets["im2col_s1_elems"] == float(
        F.im2col_t(x, 3, 1, 1)[0].size
    )
    snap = prof.snapshot()
    assert set(snap) == {"norm", "im2col", "im2col_s1", "im2col_s1_elems"}


def test_im2col_t_stride2_reports_its_own_bucket():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((1, 4, 9, 9))
    with profiling.profile() as prof:
        cols_t, _ = F.im2col_t(x, 3, 2, 1)
    assert prof.buckets["im2col_s2"] > 0.0
    assert prof.buckets["im2col_s2_elems"] == float(cols_t.size)
    assert "im2col_s1" not in prof.buckets


def test_unfold_rows_reports_whole_im2col_bucket_only():
    """The stride-1 row-shift unfold is im2col time, but not im2col_t's
    square-kernel gather that the stride-parity sub-buckets compare."""
    x = np.random.default_rng(2).standard_normal((1, 4, 8, 8))
    with profiling.profile() as prof:
        F.unfold_rows(x, 3, 1)
    assert prof.buckets["im2col"] > 0.0
    assert set(prof.snapshot()) == {"im2col"}


# -- the bench record --------------------------------------------------------

def test_bench_records_per_phase_medians(tmp_path):
    record = bench_benchmark(
        "DDPM", repeats=3, num_steps=2, cache_dir=str(tmp_path)
    )
    runs = record["cold_runs"]
    assert len(runs) == 3
    # Headline cold timings are medians across the repeats, not best-of-N.
    assert record["cold_build_s"] == round(
        statistics.median(r["build_s"] for r in runs), 4
    )
    assert record["cold_run_s"] == round(
        statistics.median(r["run_s"] for r in runs), 4
    )
    assert record["cold_total_s"] == round(
        statistics.median(r["total_s"] for r in runs), 4
    )
    assert record["cold_best_total_s"] == min(r["total_s"] for r in runs)
    # Every repeat carries its own phase breakdown...
    for run in runs:
        assert set(run["phases"]) == {"build", "run"}
        assert {"calibration", "trajectory", "quantize"} <= set(
            run["phases"]["build"]
        )
        assert "norm" in run["phases"]["run"]
        assert "im2col" in run["phases"]["run"]
        # The trajectory is timed inside the calibration phase.
        assert (
            run["phases"]["build"]["trajectory"]
            <= run["phases"]["build"]["calibration"] + 1e-6
        )
    # ...and the record-level phases are the per-bucket medians.
    for section in ("build", "run"):
        for bucket, value in record["phases"][section].items():
            per_repeat = [r["phases"][section].get(bucket, 0.0) for r in runs]
            assert value == round(statistics.median(per_repeat), 4)


def test_bench_records_plan_timings(tmp_path):
    """PR 9: each by_batch_size record carries the plan-then-execute fields
    as plain record fields - never as new ``phases`` sections, which stay
    exactly ``{build, run}`` (the shape check_bench gates per bucket)."""
    record = bench_benchmark(
        "DDPM", repeats=2, num_steps=2, cache_dir=str(tmp_path),
        batch_sizes=(1,),
    )
    sized = record["by_batch_size"]["1"]
    for field in ("plan_derive_s", "plan_replay_run_s", "plain_run_s"):
        assert sized[field] > 0.0
        assert record[field] == sized[field]  # headline mirrors batch 1
    # The derivation includes a full instrumented run; the replay does not.
    assert sized["plan_derive_s"] > sized["plan_replay_run_s"]
    for run in record["cold_runs"]:
        assert set(run["phases"]) == {"build", "run"}


def test_bench_respects_calibration_dtype(tmp_path):
    """The escape hatch reaches the engine: a float64 bench run must not
    collide with the float32 default in the result cache."""
    f32 = bench_benchmark(
        "DDPM", repeats=1, num_steps=2, cache_dir=str(tmp_path)
    )
    f64 = bench_benchmark(
        "DDPM", repeats=1, num_steps=2, cache_dir=str(tmp_path),
        calibration_dtype="float64",
    )
    # Distinct cache entries were written (two pickles on disk).
    entries = list(tmp_path.rglob("*"))
    assert len([p for p in entries if p.is_file()]) >= 2
    # Scales differ in ulps, so the drift canary may differ in the last
    # digits but the records must be structurally identical.
    assert f32["records"] == f64["records"]
    assert f32["steps"] == f64["steps"]
