"""Ablation: quantization design choices called out in DESIGN.md.

Two studies beyond the paper's figures:

1. **Shared-scale requirement** - Ditto's exactness rests on adjacent steps
   sharing a scale.  Timestep-clustered quantization (the paper's
   Q-Diffusion/TDQ synergy, Related Work) trades tighter per-window scales
   against one dense re-run per cluster boundary; we sweep the cluster
   count and measure both sides of the trade.
2. **Dependency-bypass styles** - naive vs sign-mask (Cambricon-D) vs
   chained (Defo) vs both, measured as total traffic of the all-temporal
   schedule (the lever behind Figs. 8/14/15).
"""

import numpy as np

from repro.core import DittoEngine, EngineConfig, lower_temporal
from repro.core.bitwidth import BitWidthStats
from repro.workloads import get_benchmark

STEPS = 16


def _temporal_stats(result):
    total = BitWidthStats.empty()
    for step in result.rich_trace:
        if step.stats_temporal is not None:
            total = total.merge(step.stats_temporal)
    return total


def _dense_fallbacks(result):
    return sum(1 for s in result.rich_trace if s.stats_temporal is None)


def test_ablation_step_cluster_count(benchmark, record_result):
    spec = get_benchmark("DDPM")

    def analyze():
        rows = {}
        for clusters in (1, 2, 4):
            if clusters == 1:
                engine = DittoEngine.from_benchmark(spec, num_steps=STEPS)
            else:
                engine = DittoEngine.from_model(
                    spec.build_model(),
                    EngineConfig(
                        num_steps=STEPS,
                        step_clusters=clusters,
                        sampler=spec.sampler,
                    ),
                    sample_shape=spec.sample_shape,
                    conditioning=spec.build_conditioning(),
                    benchmark=spec.name,
                )
            result = engine.run(seed=0)
            stats = _temporal_stats(result)
            rows[clusters] = {
                "zero": stats.zero_frac,
                "fallbacks": _dense_fallbacks(result),
                "samples": result.samples,
            }
        return rows

    rows = benchmark.pedantic(analyze, rounds=1, iterations=1)

    lines = [f"{'clusters':>8s} {'zero%':>7s} {'dense fallback records':>23s}"]
    for clusters, row in rows.items():
        lines.append(
            f"{clusters:8d} {100 * row['zero']:7.1f} {row['fallbacks']:23d}"
        )
    lines.append(
        "trade-off: tighter per-cluster scales vs one dense step per boundary"
    )
    record_result("ablation_step_clusters", lines)
    print("\n".join(lines))

    # More clusters -> strictly more dense boundary re-runs.
    fallbacks = [rows[c]["fallbacks"] for c in (1, 2, 4)]
    assert fallbacks[0] < fallbacks[1] < fallbacks[2]
    # Outputs of all variants stay in the same regime (same FP32 target).
    base = rows[1]["samples"]
    for clusters in (2, 4):
        drift = np.abs(rows[clusters]["samples"] - base).mean()
        assert drift < np.abs(base).mean()


def test_ablation_bypass_styles(benchmark, engine_results, record_result):
    def analyze():
        rows = {}
        for name, result in engine_results.items():
            trace = result.rich_trace
            rows[name] = {
                style: lower_temporal(trace, bypass_style=style).total_bytes()
                for style in ("none", "sign_mask", "chained", "both")
            }
        return rows

    rows = benchmark.pedantic(analyze, rounds=1, iterations=1)

    lines = [f"{'model':6s} {'none':>12s} {'sign_mask':>12s} {'chained':>12s} {'both':>12s}"]
    for name, row in rows.items():
        base = row["none"]
        lines.append(
            f"{name:6s} "
            + " ".join(f"{row[s] / base:12.3f}" for s in ("none", "sign_mask", "chained", "both"))
        )
    lines.append("bytes of the all-temporal schedule, normalized to no bypass")
    record_result("ablation_bypass_styles", lines)
    print("\n".join(lines))

    for name, row in rows.items():
        # Bypasses only remove traffic, and 'both' is the union.
        assert row["sign_mask"] <= row["none"], name
        assert row["chained"] <= row["none"], name
        assert row["both"] <= min(row["sign_mask"], row["chained"]), name
    # Sign-mask is nearly useless for the transformers: their token path is
    # LayerNorm/GeLU/Softmax; only the tiny adaLN conditioning MLPs sit
    # behind SiLU (paper's core argument for Defo's generality).
    for name in ("DiT", "Latte"):
        saving = 1.0 - rows[name]["sign_mask"] / rows[name]["none"]
        assert saving < 0.005, (name, saving)
    # ... but it meaningfully helps the SiLU/GroupNorm-rich UNets.
    for name in ("DDPM", "BED", "CHUR"):
        saving = 1.0 - rows[name]["sign_mask"] / rows[name]["none"]
        assert saving > 0.02, (name, saving)
