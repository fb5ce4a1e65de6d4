"""Property-based tests for Defo invariants over random traces (hypothesis).

The key lattice: for any trace and any hardware model,

    cycles(ideal) <= cycles(Defo) and cycles(ideal) <= cycles(naive temporal)

because the ideal oracle picks the per-layer-step argmin over the exact
choices the other policies have.  These properties must hold for *any*
operand statistics, not just the ones real models produce.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ExecutionMode, RichTrace, lower_temporal, run_defo, run_ideal
from repro.core.bitwidth import BitWidthStats
from repro.core.trace import MODES, RichLayerStep
from repro.hw import build_accelerator


def random_trace(seed: int, num_layers: int, num_steps: int) -> RichTrace:
    rng = np.random.default_rng(seed)
    trace = RichTrace()
    for step in range(num_steps):
        for layer in range(num_layers):
            total = 100
            zero, low = sorted(rng.integers(0, total + 1, size=2))
            stats = BitWidthStats(
                total=total, zero=zero, low=low - zero, high=total - low
            )
            d_zero, d_low = sorted(rng.integers(0, total + 1, size=2))
            dense_stats = BitWidthStats(
                total=total, zero=d_zero, low=d_low - d_zero, high=total - d_low
            )
            trace.append(
                RichLayerStep(
                    step_index=step,
                    layer_name=f"L{layer}",
                    kind="conv" if layer % 2 else "fc",
                    macs=int(rng.integers(1_000, 1_000_000)),
                    in_elems=int(rng.integers(10, 50_000)),
                    out_elems=int(rng.integers(10, 50_000)),
                    weight_elems=int(rng.integers(10, 10_000)),
                    data_elems=total,
                    stats_dense=dense_stats,
                    stats_spatial=stats,
                    stats_temporal=stats if step > 0 else None,
                    sub_ops_temporal=int(rng.integers(1, 3)),
                    vpu_elems=int(rng.integers(0, 1_000)),
                )
            )
    return trace


def total_cycles(hardware, trace) -> float:
    return hardware.run(trace).total_cycles


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_layers=st.integers(1, 6),
    num_steps=st.integers(2, 8),
    hw_name=st.sampled_from(["Ditto", "Cambricon-D"]),
)
def test_ideal_lower_bounds_defo_and_naive(seed, num_layers, num_steps, hw_name):
    trace = random_trace(seed, num_layers, num_steps)
    hardware = build_accelerator(hw_name)
    ideal = total_cycles(hardware, run_ideal(trace, hardware))
    defo = total_cycles(hardware, run_defo(trace, hardware).trace)
    naive = total_cycles(hardware, lower_temporal(trace))
    assert ideal <= defo + 1e-6
    assert ideal <= naive + 1e-6


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), plus=st.booleans())
def test_defo_decisions_cover_all_layers(seed, plus):
    trace = random_trace(seed, 5, 4)
    hardware = build_accelerator("Ditto")
    report = run_defo(trace, hardware, plus=plus)
    assert set(report.decisions) == {f"L{i}" for i in range(5)}
    assert 0.0 <= report.accuracy <= 1.0
    assert 0.0 <= report.changed_fraction <= 1.0
    # The lowered trace covers every record exactly once.
    assert len(report.trace) == len(trace)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_dynamic_never_switches_into_temporal(seed):
    """Dynamic-Ditto may only abandon difference processing, never adopt it."""
    trace = random_trace(seed, 4, 7)
    hardware = build_accelerator("Ditto")
    report = run_defo(trace, hardware, dynamic=True)
    steps = sorted({r.step_index for r in trace})[2:]
    for layer in report.decisions:
        was_temporal = report.decisions[layer] is ExecutionMode.TEMPORAL
        for step in steps:
            mode = report.assigned.get((layer, step))
            if mode is None:
                continue
            if mode is ExecutionMode.TEMPORAL:
                assert was_temporal  # can't re-enter after leaving
            else:
                was_temporal = False


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_defo_trace_mode_consistency(seed):
    """Step 0 runs the fallback, step 1 temporal, later steps the decision."""
    trace = random_trace(seed, 3, 5)
    hardware = build_accelerator("Ditto")
    report = run_defo(trace, hardware)
    lowered = report.trace
    names = lowered.layer_names()
    for step_index, layer_id, mode_id in zip(
        lowered.col("step_index"), lowered.col("layer_id"), lowered.col("mode")
    ):
        mode = MODES[mode_id]
        if step_index == 0:
            assert mode is ExecutionMode.DENSE
        elif step_index == 1:
            assert mode is ExecutionMode.TEMPORAL
        else:
            assert mode is report.decisions[names[layer_id]]
