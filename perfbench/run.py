#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload replay-ddpm-b4 --seed 1 --seconds 25 --trace 0

Run from the repository root (the library is imported from ``src/``).  The
run sets up several times (median = ``setup_s``), computes the references
its output checks need, measures the workload for ``--seconds``, checks the
outputs outside the timed region, and prints a human report followed by one
JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` measures for
half of ``--seconds``, repeats the same units under the layer tracer
(``tracing.py``) and reports the per-layer metrics instead, including the unattributed remainder
and the tracing overhead; its spans are written to
``.perfbench/spans-<workload>-seed<n>.jsonl.gz``.  Metric definitions are in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

# Pinned before numpy is imported: one BLAS thread whatever the host offers.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# The host is shared and its speed drifts by up to ~40% in phases of seconds
# to minutes.  A fixed numpy probe (GEMM + rint + clip, like the engine's hot
# path) is timed before and after every set-up and every measured unit, and
# end-to-end times are scaled by PROBE_REF_S / probe time: they read as
# seconds on a host where the probe takes PROBE_REF_S.  Raw wall-clock values
# are printed beside them.
PROBE_REF_S = 0.008

# (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("gen_samples_per_s", "samples/s"),
    ("latency_p50_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (name, unit) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = (
    ("nn.backends.im2col_s", "s"),
    ("nn.backends.im2col_elems", "elems"),
    ("nn.backends.gemm_s", "s"),
    ("nn.backends.gemm_calls", "count"),
    ("nn.backends.gemm_macs", "MAC"),
    ("quant.quantizer.quantize_s", "s"),
    ("quant.quantizer.quantize_elems", "elems"),
    ("quant.qlayers.conv_self_s", "s"),
    ("quant.qlayers.linear_self_s", "s"),
    ("quant.qlayers.attention_self_s", "s"),
    ("nn.functional.norm_s", "s"),
    ("nn.functional.pointwise_s", "s"),
    ("diffusion.samplers.step_s", "s"),
    ("diffusion.pipeline.model_calls", "count"),
    ("core.bitwidth.classify_s", "s"),
    ("core.bitwidth.classified_elems", "elems"),
    ("core.trace.records", "count"),
    ("hw.evaluate_designs_s", "s"),
    ("core.session.step_s", "s"),
    ("core.session.remap_s", "s"),
    ("core.session.composition_changes", "count"),
    ("core.session.admits", "count"),
    ("runtime.serving.latency_p50_s", "s"),
    ("runtime.serving.latency_p90_s", "s"),
    ("runtime.serving.queue_wait_p50_s", "s"),
    ("runtime.serving.batch_fill_mean", "rows"),
    ("runtime.serving.step_service_p50_s", "s"),
    ("runtime.serving.throughput_rps", "1/s"),
    ("core.engine.build_s", "s"),
    ("quant.calibration.calibrate_s", "s"),
    ("core.plan.derive_s", "s"),
    ("runtime.cache.get_s", "s"),
    ("runtime.cache.put_s", "s"),
    ("runtime.cache.hits", "count"),
    ("runtime.cache.misses", "count"),
    ("core.bitwidth.temporal_zero_frac", "frac"),
    ("core.bitwidth.temporal_low_or_zero_frac", "frac"),
    ("core.bops.temporal_relative_bops", "frac"),
    ("hw.ditto_speedup_vs_itc", "x"),
    ("hw.ditto_energy_vs_itc", "x"),
    ("traced_wall_s", "s"),
    ("unattributed_s", "s"),
    ("unattributed_frac", "frac"),
    ("tracing_overhead_frac", "frac"),
)


class SetupError(Exception):
    """The checkout cannot run the benchmark (no library source)."""


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_library():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no library source at {SRC / 'repro'}; run from a full checkout")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SetupError(f"imported repro from {repro.__file__}, not {SRC}")


def _blas_info():
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return {key: deps[key].get("name") + " " + str(deps[key].get("version"))
                for key in ("blas", "lapack") if key in deps}
    except (TypeError, KeyError, AttributeError) as exc:
        return {"unknown": f"{type(exc).__name__}: {exc}"}


def environment(engine):
    """What the numbers depend on besides the code: recorded in every run."""
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "backend_requested": engine.backend,
        "backend_effective": engine.effective_backend,
        "backend_fallback_reason": engine.backend_fallback_reason,
        "platform": platform.platform(),
    }


class HostProbe:
    """Times a fixed numpy workload: the host-speed reference of a run."""

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((256, 256))
        self._b = rng.standard_normal((256, 256))
        self._c = np.empty((256, 256))
        self._np = np
        self.times = []

    def __call__(self) -> float:
        np, a, b, c = self._np, self._a, self._b, self._c
        reps = []
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(10):
                np.matmul(a, b, out=c)
                np.rint(c, out=c)
                np.clip(c, -127.0, 127.0, out=c)
            reps.append(time.perf_counter() - t0)
        self.times.append(statistics.median(reps))
        return self.times[-1]


def scale_factors(probes):
    """Per timed call, the factor to reference-host seconds: ``PROBE_REF_S``
    over the mean of the probes taken just before and just after it."""
    return [2.0 * PROBE_REF_S / (a + b) for a, b in zip(probes, probes[1:])]


def timed(fn, repeats, probe):
    """``repeats`` timed calls of ``fn``, probed around each; returns the last
    result, the raw durations and the probe times."""
    from repro.bench import clear_pools

    durations, probes = [], [probe()]
    for _ in range(repeats):
        clear_pools()
        gc.collect()
        t0 = time.perf_counter()
        result = fn()
        durations.append(time.perf_counter() - t0)
        probes.append(probe())
    return result, durations, probes


def timed_loop(workload, state, seconds, probe, units=None, tracer=None):
    """Run units until ``seconds`` of unit time have passed (at least
    ``min_units``, at most ``max_units``), or exactly ``units`` when given.
    Returns the outputs, each unit's raw duration, and the probe times
    around them."""
    outputs, durations, probes = [], [], [probe()]
    k = 0
    while True:
        if units is not None:
            if k >= units:
                break
        elif workload.max_units is not None and k >= workload.max_units:
            break
        elif k >= workload.min_units and sum(durations) >= seconds:
            break
        if tracer is not None:
            tracer.unit = k
        t0 = time.perf_counter()
        outputs.append(workload.unit(state, k))
        durations.append(time.perf_counter() - t0)
        probes.append(probe())
        k += 1
    return outputs, durations, probes


def _checks(workload, state, outputs):
    attempted, failed, problems = workload.check(state, outputs)
    verify = getattr(workload, "verify", None)
    if verify is not None:
        v_attempted, v_failed, v_problems = verify(state)
        attempted, failed = attempted + v_attempted, failed + v_failed
        problems = problems + v_problems
    return attempted, failed, problems


def layer_metrics(tracer, workload, state, outputs, wall_s):
    """The per-layer metrics of one traced pass (see README.md); ``wall_s``
    is the pass's summed unit time, the base of the attribution share."""
    import numpy as np

    self_s = tracer.self_time
    count = tracer.count
    every = ("setup", "plan", "run")
    steps = tracer.durations("core.session.step")
    metrics = {
        "nn.backends.im2col_s": self_s("nn.backends.im2col"),
        "nn.backends.im2col_elems": count("im2col_elems"),
        "nn.backends.gemm_s": self_s("nn.backends.gemm"),
        "nn.backends.gemm_calls": count("gemm_calls"),
        "nn.backends.gemm_macs": count("gemm_macs"),
        "quant.quantizer.quantize_s": self_s("quant.quantizer.quantize"),
        "quant.quantizer.quantize_elems": count("quantize_elems"),
        "quant.qlayers.conv_self_s": self_s("quant.qlayers.conv"),
        "quant.qlayers.linear_self_s": self_s("quant.qlayers.linear"),
        "quant.qlayers.attention_self_s": self_s("quant.qlayers.attention"),
        "nn.functional.norm_s": self_s("nn.functional.norm"),
        "nn.functional.pointwise_s": self_s("nn.functional.pointwise"),
        "diffusion.samplers.step_s": self_s("diffusion.samplers.step"),
        "diffusion.pipeline.model_calls": count("model_calls"),
        "core.bitwidth.classify_s": self_s("core.bitwidth.classify"),
        "core.bitwidth.classified_elems": count("classified_elems"),
        "core.trace.records": count("records"),
        "hw.evaluate_designs_s": self_s("hw.evaluate_designs"),
        "core.session.step_s": self_s("core.session.step"),
        "core.session.remap_s": self_s("core.session.remap"),
        "core.session.composition_changes": count("composition_changes"),
        "core.session.admits": count("admits"),
        "runtime.serving.latency_p50_s": 0.0,
        "runtime.serving.latency_p90_s": 0.0,
        "runtime.serving.queue_wait_p50_s": 0.0,
        "runtime.serving.batch_fill_mean": 0.0,
        "runtime.serving.step_service_p50_s": float(np.median(steps)) if steps else 0.0,
        "runtime.serving.throughput_rps": 0.0,
        "core.engine.build_s": tracer.total_time("core.engine.build"),
        "quant.calibration.calibrate_s": tracer.total_time("quant.calibration.calibrate"),
        "core.plan.derive_s": tracer.total_time("core.plan.derive"),
        "runtime.cache.get_s": tracer.total_time("runtime.cache.get"),
        "runtime.cache.put_s": tracer.total_time("runtime.cache.put"),
        "runtime.cache.hits": count("cache_hits", every),
        "runtime.cache.misses": count("cache_misses", every),
    }
    serving_layer = getattr(workload, "serving_layer", None)
    if serving_layer is not None:
        metrics.update(serving_layer(outputs))
    metrics.update(workload.mechanism(state, outputs))
    unattributed = wall_s - tracer.root_time("run")
    metrics["traced_wall_s"] = wall_s
    metrics["unattributed_s"] = unattributed
    metrics["unattributed_frac"] = unattributed / wall_s
    return metrics


def run(workload_name, seed, seconds, trace, size=None):
    """One benchmark run; returns ``(result, report)``: the contract's JSON
    object and a dict of everything else worth printing."""
    import numpy as np

    import workloads
    from tracing import Tracer, find_wrappers

    workload = workloads.make_workload(workload_name, seed, size or workloads.FULL)
    probe = HostProbe()
    state, setup_raw, setup_probes = timed(workload.setup, workload.size.setup_repeats, probe)
    workload.prepare(state)
    gc.collect()
    # A traced run measures the units twice (untraced, then traced); half
    # the time each keeps it as long as an untraced run.
    outputs, durations, probes = timed_loop(
        workload, state, seconds / 2 if trace else seconds, probe
    )
    attempted, failed, problems = _checks(workload, state, outputs)
    scales = scale_factors(probes)
    e2e = {"setup_s": statistics.median(np.multiply(setup_raw, scale_factors(setup_probes)))}
    e2e.update(workload.end_to_end(outputs, durations, scales))
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = {"setup_s": statistics.median(setup_raw)}
    raw.update(workload.end_to_end(outputs, durations, [1.0] * len(durations)))
    report = {
        "environment": environment(state),
        "units": len(outputs),
        "unit_s": sum(durations),
        "probe_s": statistics.median(probe.times),
        "raw": raw,
        "aliases": workload.aliases(e2e, outputs, scales),
        "failed_frac": failed / attempted,
        "problems": problems,
        "note": workload.note,
    }
    if not trace:
        metrics = e2e
    else:
        tracer = Tracer()
        with tracer:
            tracer.phase = "setup"
            workload.setup()
            tracer.phase = "run"
            gc.collect()
            t_outputs, t_durations, t_probes = timed_loop(
                workload, state, seconds, probe, units=len(outputs), tracer=tracer
            )
        left = find_wrappers()
        if left:
            raise RuntimeError(f"tracing wrappers survived uninstall: {left}")
        t_attempted, t_failed, t_problems = workload.check(state, t_outputs)
        attempted, failed = attempted + t_attempted, failed + t_failed
        problems += [f"traced pass: {p}" for p in t_problems]
        metrics = layer_metrics(tracer, workload, state, t_outputs, sum(t_durations))
        metrics["tracing_overhead_frac"] = (
            np.dot(t_durations, scale_factors(t_probes)) / np.dot(durations, scales) - 1.0
        )
        report["end_to_end"] = e2e
        report["spans"] = len(tracer.spans)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{workload_name}-seed{seed}.jsonl.gz"
        tracer.write(spans_path, {
            "workload": workload_name, "seed": seed, "seconds": seconds,
            "environment": report["environment"], "metrics": metrics,
        })
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in (PER_LAYER if trace else END_TO_END)
        },
    }
    return result, report


def _print_report(args, result, report) -> None:
    print(f"perfbench: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("environment: " + json.dumps(report["environment"], sort_keys=True))
    print(f"measured {report['units']} unit(s), {report['unit_s']:.3f} s of unit time; "
          f"host probe median {report['probe_s'] * 1e3:.3f} ms "
          f"(reference {PROBE_REF_S * 1e3:g} ms)")
    rows = [(name, entry["value"], entry["unit"]) for name, entry in result["metrics"].items()]
    if args.trace:
        rows = [(n, v, u) for n, u in END_TO_END for v in [report["end_to_end"][n]]] + rows
    rows += [(name, value, unit) for name, (value, unit) in report["aliases"].items()]
    rows += [(f"{name} (raw wall clock)", report["raw"][name], unit)
             for name, unit in END_TO_END if name in report["raw"]]
    rows.append(("failed_frac", report["failed_frac"], "frac"))
    width = max(len(row[0]) for row in rows)
    for name, value, unit in rows:
        print(f"  {name:<{width}}  {value:>14.6g}  {unit}")
    if report["note"]:
        print(f"note: {report['note']}")
    if args.trace:
        print("note: per-layer MACs and element counts are computed from operand shapes; "
              f"{report['spans']} spans written to {report['spans_file']}")
    for problem in report["problems"]:
        print(f"CHECK FAILED: {problem}")


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        _import_library()
        import workloads

        if args.workload not in workloads.WORKLOADS:
            raise SetupError(
                f"unknown workload {args.workload!r}; choose from {list(workloads.WORKLOADS)}"
            )
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=OUT_DIR)
    # Every run starts from a private, empty result cache.
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    try:
        result, report = run(args.workload, args.seed, args.seconds, args.trace)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    _print_report(args, result, report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
