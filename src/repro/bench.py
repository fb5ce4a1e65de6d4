"""``repro bench`` - machine-readable performance measurements.

Times the cold path (``DittoEngine.from_benchmark(...).run()``: quantize +
calibrate + instrumented generation) and the warm path (loading the same
:class:`~repro.core.engine.EngineResult` back from the content-addressed
result cache) per Table I benchmark, and writes the numbers as JSON so the
repository accumulates a perf trajectory over PRs instead of anecdotes.

The cold timing is exactly the hot path every figure and ablation funnels
through, which is why it is the headline number; ``--baseline`` lets a run
record the reference measurement it should be compared against (e.g. the
same benchmark timed on the previous mainline commit on the same machine).
"""

from __future__ import annotations

import json
import platform
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import profiling
from .core import DittoEngine, EngineConfig
from .core.bitwidth import clear_classification_pool
from .core.config import DEFAULT_CALIBRATION_DTYPE
from .runtime import ResultCache, default_cache_dir, normalize_batch_sizes
from .runtime.hashing import engine_key
from .scratch import clear_scratch
from .workloads import get_benchmark

__all__ = [
    "bench_benchmark", "run_bench", "DEFAULT_OUT", "clear_pools",
    "host_speed_index",
]

DEFAULT_OUT = "BENCH_PR10.json"


def clear_pools() -> None:
    """Reset the per-thread scratch pools between measured models."""
    clear_scratch()
    clear_classification_pool()


def host_speed_index(repeats: int = 9) -> float:
    """Seconds for a fixed single-core numpy workload (smaller = faster).

    A ~30 ms float64 GEMM + elementwise probe shaped like the engine's hot
    path.  Recorded into every bench record so the CI perf gate
    (``scripts/check_bench.py``) can compare *normalized* timings across
    machines - a hosted runner 2x slower than the machine that recorded the
    baseline also measures a ~2x speed index, leaving the ratio meaningful.
    Best-of-``repeats`` to shed scheduler noise.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((256, 256))
    b = rng.standard_normal((256, 256))
    (a @ b)  # BLAS warmup: first-call setup must not pollute the probe
    best = float("inf")
    for _ in range(max(repeats, 1)):
        t0 = time.perf_counter()
        c = a
        for _ in range(8):
            c = c @ b
            np.rint(c, out=c)
            np.clip(c, -127, 127, out=c)
        best = min(best, time.perf_counter() - t0)
    return best


def _median_phases(per_repeat: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-bucket medians across repeats (absent buckets count as 0)."""
    names: List[str] = []
    for snapshot in per_repeat:
        for name in snapshot:
            if name not in names:
                names.append(name)
    return {
        name: round(
            statistics.median(s.get(name, 0.0) for s in per_repeat), 4
        )
        for name in names
    }


def _bench_one_batch_size(
    spec,
    config: EngineConfig,
    seed: int,
    batch: int,
    repeats: int,
    cache_dir,
) -> Dict[str, object]:
    """Cold build+run (per-phase medians of ``repeats``) and warm load.

    Every repeat records a full phase breakdown: the build phase splits
    into ``calibration`` (containing ``trajectory``, which itself contains
    its ``norm``/``im2col`` share) and ``quantize``; the run phase reports
    its ``norm``/``im2col`` share.  The headline ``cold_build_s`` /
    ``cold_run_s`` / ``cold_total_s`` are *medians* across repeats (schema
    3) - best-of-N totals let one lucky repeat hide a phase regression, and
    the per-phase gate in ``scripts/check_bench.py`` needs each phase
    centred on the same statistic.  ``cold_best_total_s`` keeps the
    optimistic headline.

    The ``im2col`` phase bucket is further split by stride so the blocked
    stride-2 unfold can be *gated* against the stride-1 scheme rather than
    asserted: ``im2col_s1`` / ``im2col_s2`` accumulate seconds and
    ``im2col_s1_elems`` / ``im2col_s2_elems`` the elements written, and
    ``scripts/check_bench.py`` compares the per-element rates.  Only
    ``im2col_t`` feeds the sub-buckets; the stride-1 quantized convs'
    row-shift unfold (``unfold_rows``) is timed in ``im2col`` alone, so a
    run phase's ``im2col_s1`` is absent and ``im2col`` exceeds the sum of
    its sub-buckets.

    Plan-then-execute (PR 9) adds three steady-state fields per record:
    ``plan_derive_s`` (the one-time instrumented derivation of the
    :class:`~repro.core.plan.ExecutionPlan`), ``plan_replay_run_s`` (median
    plan-mode serving run: ``record_trace=False`` with the plan already
    derived), and ``plain_run_s`` (median plain-forward floor - the same
    uninstrumented run with no plan involved).  ``scripts/check_bench.py``
    gates ``plan_replay_run_s`` within 15% of ``plain_run_s``, proving the
    serving run phase reached the floor.  These are record *fields*, not new
    ``phases`` sections: each cold repeat's phase dict stays exactly
    ``{"build", "run"}``.
    """
    cold_runs: List[Dict[str, object]] = []
    result = None
    for _ in range(max(repeats, 1)):
        clear_pools()  # measure each repeat from a cold scratch state
        with profiling.profile() as build_prof:
            t0 = time.perf_counter()
            engine = DittoEngine.from_benchmark(spec, **config.axes())
            t1 = time.perf_counter()
        with profiling.profile() as run_prof:
            result = engine.run(batch_size=batch, seed=seed)
            t2 = time.perf_counter()
        cold_runs.append(
            {
                "build_s": round(t1 - t0, 4),
                "run_s": round(t2 - t1, 4),
                "total_s": round(t2 - t0, 4),
                "phases": {
                    "build": build_prof.snapshot(),
                    "run": run_prof.snapshot(),
                },
            }
        )
    build_s = statistics.median(r["build_s"] for r in cold_runs)
    run_s = statistics.median(r["run_s"] for r in cold_runs)
    total_s = statistics.median(r["total_s"] for r in cold_runs)
    best_total_s = min(r["total_s"] for r in cold_runs)
    phases = {
        "build": _median_phases([r["phases"]["build"] for r in cold_runs]),
        "run": _median_phases([r["phases"]["run"] for r in cold_runs]),
    }

    # Warm path: persist the result, then time the cache read that a warm
    # sweep / benchmark session would perform instead of rebuilding.
    cache = ResultCache(cache_dir or default_cache_dir())
    key = engine_key(spec, seed=seed, batch_size=batch, **config.axes())
    cache.put(key, result)
    t0 = time.perf_counter()
    loaded = cache.get(key)
    warm_s: Optional[float] = time.perf_counter() - t0
    if loaded is None:  # pragma: no cover - cache dir unwritable
        warm_s = None  # null in JSON; NaN would break strict parsers

    trace = result.rich_trace

    # Plan-then-execute: the plan-replay run phase vs the plain-forward
    # floor, both steady-state.  One untimed record_trace=False run first so
    # the one-time sticky-scale probe forward is excluded from every timed
    # repeat (a serving loop pays it once, not per run).
    engine.run(batch_size=batch, seed=seed, record_trace=False)
    plain_times = []
    for _ in range(max(repeats, 1)):
        t0 = time.perf_counter()
        engine.run(batch_size=batch, seed=seed, record_trace=False)
        plain_times.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    plan = engine.derive_plan(seed=seed, batch_size=1)
    plan_derive_s = time.perf_counter() - t0
    # The plan-mode serving run: explicit per-request noise + rng streams
    # (a lockstep batch of served requests), plan already derived, no
    # instrumentation.  The gate demands this approaches plain_run_s.
    x_init = np.random.default_rng(seed).standard_normal(
        (batch,) + tuple(engine.pipeline.sample_shape)
    )
    rngs = [
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        for i in range(batch)
    ]
    replay_times = []
    for _ in range(max(repeats, 1)):
        t0 = time.perf_counter()
        engine.run(x_init=x_init, record_trace=False, rngs=rngs)
        replay_times.append(time.perf_counter() - t0)
    assert plan.num_records == len(trace)  # same engine, same trajectory

    return {
        "batch_size": batch,
        "cold_build_s": round(build_s, 4),
        "cold_run_s": round(run_s, 4),
        "cold_total_s": round(total_s, 4),
        "cold_best_total_s": round(best_total_s, 4),
        "cold_runs": cold_runs,
        "phases": phases,
        "warm_load_s": None if warm_s is None else round(warm_s, 4),
        "plan_derive_s": round(plan_derive_s, 4),
        "plan_replay_run_s": round(statistics.median(replay_times), 4),
        "plain_run_s": round(statistics.median(plain_times), 4),
        "records": len(trace),
        "steps": trace.num_steps(),
        "total_macs": trace.total_macs(),
        "samples_per_cold_run_s": round(batch / run_s, 3) if run_s else None,
        "samples_l1": float(np.abs(result.samples).sum()),  # drift canary
    }


def bench_benchmark(
    name: str,
    repeats: int = 2,
    seed: int = 0,
    num_steps: Optional[int] = None,
    batch_sizes: Optional[Sequence[int]] = None,
    cache_dir=None,
    calibration_dtype: Optional[str] = None,
) -> Dict[str, object]:
    """Cold/warm timings for one benchmark; returns a JSON-ready record.

    ``batch_sizes`` (default ``[1]``) adds one cold build+run / warm load
    measurement per generation batch size under ``by_batch_size``; the
    top-level ``cold_*`` / ``warm_load_s`` / ``phases`` fields mirror the
    first batch size, so single-batch consumers keep reading the same keys.
    """
    spec = get_benchmark(name)
    # First-occurrence order: the first size is the headline record; a
    # duplicated size would re-run the cold measurement and silently
    # overwrite its by_batch_size entry.
    sizes = normalize_batch_sizes(batch_sizes or [1], preserve_order=True)
    # One config drives BOTH the engine construction and the cache key, so
    # the stored entry can never claim parameters not used.
    config = EngineConfig.resolve(
        spec, num_steps=num_steps, calibration_dtype=calibration_dtype
    )
    by_size: Dict[str, Dict[str, object]] = {
        str(size): _bench_one_batch_size(spec, config, seed, size, repeats, cache_dir)
        for size in sizes
    }
    headline = by_size[str(sizes[0])]
    record = {
        key: headline[key]
        for key in (
            "cold_build_s", "cold_run_s", "cold_total_s", "cold_best_total_s",
            "cold_runs", "phases", "warm_load_s", "plan_derive_s",
            "plan_replay_run_s", "plain_run_s", "records", "steps",
            "total_macs", "samples_l1",
        )
    }
    record["by_batch_size"] = by_size
    return record


def run_bench(
    benchmarks: Optional[Sequence[str]] = None,
    repeats: int = 2,
    quick: bool = False,
    seed: int = 0,
    num_steps: Optional[int] = None,
    batch_sizes: Optional[Sequence[int]] = None,
    out_path: Optional[str] = None,
    baseline_s: Optional[float] = None,
    baseline_ref: Optional[str] = None,
    cache_dir=None,
    calibration_dtype: Optional[str] = None,
) -> Dict[str, object]:
    """Bench the given benchmarks (default: whole Table I suite) to JSON."""
    from .workloads import SUITE

    if quick:
        repeats = 1
        if not benchmarks:
            benchmarks = ["DDPM"]
    names = list(benchmarks) if benchmarks else list(SUITE)
    sizes = normalize_batch_sizes(batch_sizes or [1], preserve_order=True)
    results: Dict[str, object] = {}
    for name in names:
        results[name] = bench_benchmark(
            name, repeats=repeats, seed=seed, num_steps=num_steps,
            batch_sizes=sizes, cache_dir=cache_dir,
            calibration_dtype=calibration_dtype,
        )
    payload: Dict[str, object] = {
        # Schema 3 (PR 5): cold_* headline timings are per-phase medians
        # across repeats (cold_best_total_s keeps the best-of-N total) and
        # every record carries a "phases" breakdown (build: calibration /
        # trajectory / quantize / norm / im2col; run: norm / im2col).
        # PR 9 adds per-record plan-then-execute fields (plan_derive_s /
        # plan_replay_run_s / plain_run_s) without changing the schema: the
        # gate treats absent metrics as "fewer comparisons", never failures.
        # PR 10 adds the im2col stride sub-buckets (seconds + element
        # counters) the same additive way.
        "schema": 3,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            # Single-core numpy speed probe: lets the perf gate normalize
            # absolute timings recorded on different machine classes.
            "speed_index_s": round(host_speed_index(), 5),
        },
        "config": {
            "repeats": repeats,
            "seed": seed,
            "num_steps": num_steps,
            "batch_sizes": sizes,
            # The run-level default; per-spec float64 pins (if a spec
            # carries one) are reflected in each engine's cache key, not
            # re-recorded here.
            "calibration_dtype": calibration_dtype or DEFAULT_CALIBRATION_DTYPE,
        },
        "benchmarks": results,
    }
    if baseline_s is not None:
        headline = names[0]
        cold = results[headline]["cold_total_s"]
        payload["baseline"] = {
            "ref": baseline_ref or "previous mainline commit",
            "benchmark": headline,
            "cold_total_s": baseline_s,
            "speedup": round(baseline_s / cold, 3) if cold else None,
        }
    if out_path:
        Path(out_path).write_text(json.dumps(payload, indent=1) + "\n")
    return payload
