#!/usr/bin/env python
"""CI perf gate: run perfbench's workloads and compare them with a record.

    python scripts/check_bench.py --baseline BENCH_PR32.json          # gate
    python scripts/check_bench.py --baseline BENCH_PR32.json --write  # re-record

For every workload in ``BENCHMARK.json`` the gate runs ``perfbench/run.py``
at ``SEED`` for ``SECONDS``: once untraced (``--trace 0``) for the
end-to-end metrics and ``PASSES`` times traced (``--trace 1``) for the
per-layer ones.  It writes the fresh measurement to ``perfbench-fresh.json``
and fails when

* any run reports ``correct: false`` or ``failed > 0``, or prints no result;
* a workload or end-to-end metric of ``BENCHMARK.json`` has no value in the
  record or in the fresh measurement;
* an end-to-end metric is worse than the record by more than ``FACTOR``,
  in the direction ``BENCHMARK.json``'s ``better`` gives it;
* a per-layer timing is worse than the record by more than ``FACTOR`` and
  by more than ``MIN_DELTA_S``.

The per-layer timings are a traced pass's ``norm``, ``im2col``,
``quantize``, ``gemm`` and conv self time per denoiser call, and its
``calibrate``, ``build``, ``derive`` and ``cache.get`` time.  Each pass is
scaled to reference-host seconds by perfbench's own ``HostProbe``, timed
just before and just after it, as perfbench scales its end-to-end times;
the gate reads each timing's median over the passes, since one pass can
read 2-3x slow on a shared host.  A per-call timing's excess counts
against ``MIN_DELTA_S`` summed over the record's denoiser calls, so the
floor is one traced pass's worth of time, like the set-up timings'.

``--write`` records the fresh measurement as the new record instead of
comparing; it refuses a measurement that failed its checks.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
RUNNER = ROOT / "perfbench" / "run.py"
FRESH = ROOT / "perfbench-fresh.json"

SEED = 25
SECONDS = 8.0
PASSES = 3  # traced passes per workload; per-layer timings are their median
FACTOR = 2.0  # fail when worse by more than this ratio ...
MIN_DELTA_S = 0.05  # ... and, for per-layer timings, by more than this

CALLS = "diffusion.pipeline.model_calls"
# Self time per denoiser call in the traced run.  Conv self time holds the
# stride-1 row-shift unfold, which the tracer does not wrap as im2col.
PER_CALL = (
    "nn.functional.norm_s",
    "nn.backends.im2col_s",
    "quant.quantizer.quantize_s",
    "nn.backends.gemm_s",
    "quant.qlayers.conv_self_s",
)
# Inclusive time over the traced run.
PER_RUN = (
    "quant.calibration.calibrate_s",
    "core.engine.build_s",
    "core.plan.derive_s",
    "runtime.cache.get_s",
)
PER_CALL_SUFFIX = "_per_call"


def _perfbench():
    """``perfbench/run.py`` as a module, for its ``HostProbe``."""
    spec = importlib.util.spec_from_file_location("perfbench_run", RUNNER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_perfbench(workload: str, trace: int) -> dict:
    """One perfbench run; its JSON result, or a failed one if it printed none."""
    cmd = [
        sys.executable, str(RUNNER), "--workload", workload, "--seed", str(SEED),
        "--seconds", str(SECONDS), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode or not isinstance(result, dict):
        print(f"{workload} trace {trace}: exit status {proc.returncode}\n"
              + proc.stdout + proc.stderr, file=sys.stderr)
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    for line in lines:
        if line.startswith("CHECK FAILED"):
            print(f"  {workload} trace {trace}: {line}")
    return result


def _per_layer(traced: dict, scale: float) -> dict:
    """One traced pass's per-layer timings in reference-host seconds."""
    layer = {name: entry["value"] for name, entry in traced["metrics"].items()}
    if not layer:
        return {}
    calls = layer[CALLS]
    timings = {name + PER_CALL_SUFFIX: layer[name] * scale / max(calls, 1.0)
               for name in PER_CALL}
    timings.update({name: layer[name] * scale for name in PER_RUN})
    timings[CALLS] = calls
    return timings


def summarize(plain: dict, traced: list, scales: list) -> dict:
    """One workload's record entry from its untraced result and its traced
    passes; ``scales[i]`` converts pass ``i``'s seconds to reference-host
    seconds.  Each per-layer timing is its median over the passes."""
    passes = [timings for timings in map(_per_layer, traced, scales) if timings]
    per_layer = {name: statistics.median(timings[name] for timings in passes)
                 for name in (passes[0] if passes else ())}
    calls = per_layer.pop(CALLS, 0.0)
    runs = [plain, *traced]
    return {
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "end_to_end": {name: e["value"] for name, e in plain["metrics"].items()},
        "per_layer": per_layer,
        "model_calls": calls,
        "probe_scale": statistics.median(scales),
    }


def measure(workloads) -> dict:
    """Run every workload untraced once and traced ``PASSES`` times; the
    fresh measurement."""
    perfbench = _perfbench()
    for var in perfbench.BLAS_THREAD_VARS:  # the probe runs as perfbench does
        os.environ[var] = "1"
    probe = perfbench.HostProbe()
    entries = {}
    for name in workloads:
        plain = run_perfbench(name, 0)
        traced, scales = [], []
        for _ in range(PASSES):
            before = probe()
            traced.append(run_perfbench(name, 1))
            scales.append(perfbench.scale_factors([before, probe()])[0])
        entries[name] = summarize(plain, traced, scales)
        print(f"measured {name}: correct {entries[name]['correct']}, host-probe "
              f"scales {', '.join(f'{scale:.3f}' for scale in scales)}")
    return {"seed": SEED, "seconds": SECONDS, "workloads": entries}


def _worse_by(recorded: float, fresh: float, better: str) -> float:
    """How many times worse ``fresh`` is than ``recorded`` (< 1: better)."""
    worse, base = (fresh, recorded) if better == "lower" else (recorded, fresh)
    if base > 0:
        return worse / base
    return float("inf") if worse > 0 else 1.0


def compare(spec: dict, record: dict, fresh: dict):
    """Gate ``fresh`` against ``record``; returns ``(rows, failures)``.

    Each row is ``(workload, metric, recorded, fresh, worse_by, failed)``;
    each failure a message naming the workload and the metric.
    """
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    rows, failures = [], []
    for workload in (w["name"] for w in spec["workloads"]):
        base = record["workloads"].get(workload)
        new = fresh["workloads"].get(workload)
        if base is None or new is None:
            side = "record" if base is None else "fresh measurement"
            failures.append(f"{workload}: missing from the {side}")
            continue
        if not new["correct"] or new["failed"]:
            failures.append(f"{workload}: correct {new['correct']}, "
                            f"failed {new['failed']} of {new['attempted']}")
        for metric, direction in better.items():
            if metric not in base["end_to_end"] or metric not in new["end_to_end"]:
                failures.append(f"{workload} {metric}: no value")
                continue
            b, f = base["end_to_end"][metric], new["end_to_end"][metric]
            worse = _worse_by(b, f, direction)
            rows.append((workload, metric, b, f, worse, worse > FACTOR))
        for metric, b in base["per_layer"].items():
            f = new["per_layer"].get(metric)
            if f is None:
                failures.append(f"{workload} {metric}: no value")
                continue
            excess_s = f - b
            if metric.endswith(PER_CALL_SUFFIX):
                excess_s *= base["model_calls"]
            worse = _worse_by(b, f, "lower")
            rows.append((workload, metric, b, f, worse,
                         worse > FACTOR and excess_s > MIN_DELTA_S))
    failures += [
        f"{workload} {metric}: {b:.6g} -> {f:.6g}, {worse:.2f}x worse"
        for workload, metric, b, f, worse, failed in rows if failed
    ]
    return rows, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--baseline", default="BENCH_PR32.json", metavar="PATH",
        help="the committed record (default: BENCH_PR32.json)",
    )
    parser.add_argument(
        "--write", action="store_true",
        help="write the fresh measurement to --baseline instead of comparing",
    )
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    record = None
    if not args.write:
        try:
            record = json.loads(Path(args.baseline).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"check_bench: cannot read the record: {exc}", file=sys.stderr)
            return 2
    fresh = measure([workload["name"] for workload in spec["workloads"]])
    text = json.dumps(fresh, indent=1, sort_keys=True) + "\n"
    FRESH.write_text(text)
    if args.write:
        broken = [name for name, entry in fresh["workloads"].items()
                  if not entry["correct"] or entry["failed"]]
        if broken:
            print(f"FAIL: not recording, checks failed on {', '.join(broken)}")
            return 1
        Path(args.baseline).write_text(text)
        print(f"wrote {args.baseline}")
        return 0
    rows, failures = compare(spec, record, fresh)
    print(f"perf gate: {args.baseline} -> {FRESH.name}; fail when worse by "
          f"more than {FACTOR:g}x (per-layer: and by more than {MIN_DELTA_S:g} s)")
    width = max((len(metric) for _, metric, *_ in rows), default=0)
    for workload, metric, b, f, worse, failed in rows:
        flag = "REGRESSED" if failed else "ok"
        print(f"  {workload:<15} {metric:<{width}}  {b:12.6g} -> {f:12.6g}"
              f"  x{worse:5.2f}  {flag}")
    if failures:
        print(f"\nFAIL: {len(failures)} check(s) failed")
        for message in failures:
            print(f"  {message}")
        return 1
    print(f"\nOK: {len(rows)} metric(s) within the gate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
