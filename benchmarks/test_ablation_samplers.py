"""Ablation: Ditto under different samplers and trajectory lengths.

The paper's benefit comes from adjacent steps being similar; very short
trajectories (modern fast samplers) take larger jumps, weakening temporal
similarity.  This study sweeps samplers (DDIM / PLMS / DPM-Solver++) and
step counts on the DDPM workload, measuring the temporal zero fraction and
Ditto's speedup - quantifying the regime in which the paper's mechanism
pays off.
"""

from repro.core import DittoEngine, EngineConfig
from repro.core.bitwidth import BitWidthStats
from repro.hw import DesignPoint, evaluate_designs
from repro.workloads import get_benchmark

DESIGNS = [
    DesignPoint("ITC", "ITC", "dense"),
    DesignPoint("Ditto", "Ditto", "defo"),
]


def _run(sampler: str, steps: int):
    spec = get_benchmark("DDPM")
    engine = DittoEngine.from_model(
        spec.build_model(),
        EngineConfig(num_steps=steps, sampler=sampler),
        sample_shape=spec.sample_shape,
        conditioning=spec.build_conditioning(),
        benchmark=f"DDPM-{sampler}{steps}",
    )
    result = engine.run(seed=0)
    stats = BitWidthStats.empty()
    for record in result.rich_trace:
        if record.stats_temporal is not None:
            stats = stats.merge(record.stats_temporal)
    designs = evaluate_designs(DESIGNS, result.rich_trace)
    speedup = (
        designs["ITC"].report.total_cycles / designs["Ditto"].report.total_cycles
    )
    return stats.zero_frac, speedup


def test_ablation_sampler_and_steps(benchmark, record_result):
    cases = [
        ("ddim", 50),
        ("ddim", 12),
        ("plms", 20),
        ("dpmpp", 12),
    ]

    def analyze():
        return {case: _run(*case) for case in cases}

    rows = benchmark.pedantic(analyze, rounds=1, iterations=1)

    lines = [f"{'sampler':8s} {'steps':>5s} {'zero%':>7s} {'Ditto speedup':>14s}"]
    for (sampler, steps), (zero, speedup) in rows.items():
        lines.append(f"{sampler:8s} {steps:5d} {100 * zero:7.1f} {speedup:14.2f}")
    lines.append(
        "finer trajectories -> higher temporal similarity -> bigger wins"
    )
    record_result("ablation_samplers", lines)
    print("\n".join(lines))

    # Finer DDIM trajectories must show higher temporal similarity.
    assert rows[("ddim", 50)][0] > rows[("ddim", 12)][0]
    # Defo guarantees Ditto never loses badly, even on coarse trajectories.
    for case, (_zero, speedup) in rows.items():
        assert speedup > 0.85, case
    # And on the paper's regime (many steps) it clearly wins.
    assert rows[("ddim", 50)][1] > 1.2
