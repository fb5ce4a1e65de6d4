"""Unit tests for policy lowering and the Defo decision machinery."""

import numpy as np
import pytest

from repro.core import ExecutionMode, RichTrace, run_defo, run_ideal
from repro.core.policy import lower_dense, lower_spatial, lower_temporal
from repro.core.bitwidth import BitWidthStats
from repro.core.trace import MODE_ID, RichLayerStep

DENSE_ID = MODE_ID[ExecutionMode.DENSE]
TEMPORAL_ID = MODE_ID[ExecutionMode.TEMPORAL]
SPATIAL_ID = MODE_ID[ExecutionMode.SPATIAL]


class StubHardware:
    """Cycle model: compute from stats, memory from bytes; max() combined.

    compute = macs * (low + 2*high) / throughput ; memory = bytes / bw
    """

    def __init__(self, throughput=1000.0, bw=10.0):
        self.throughput = throughput
        self.bw = bw

    def cycles_array(self, trace):
        _, low, high = trace.operand_fractions()
        macs = trace.col("macs")
        compute = np.where(
            trace.col("mode") == DENSE_ID,
            2.0 * macs,
            macs * trace.col("sub_ops") * (low + 2 * high),
        ) / self.throughput
        return np.maximum(compute, trace.bytes_total() / self.bw)

    def total_cycles(self, trace):
        return float(self.cycles_array(trace).sum())


def modes_at(trace, step):
    """Mode ids of a lowered trace's records at ``step``."""
    return trace.col("mode")[trace.col("step_index") == step]


def rich_step(step_index, name, zero=60, low=30, high=10, temporal=True,
              macs=1000, in_elems=10, out_elems=10, kind="conv"):
    total = zero + low + high
    t_stats = BitWidthStats(total=total, zero=zero, low=low, high=high)
    return RichLayerStep(
        step_index=step_index,
        layer_name=name,
        kind=kind,
        macs=macs,
        in_elems=in_elems,
        out_elems=out_elems,
        weight_elems=5,
        data_elems=total,
        stats_dense=BitWidthStats(total=total, zero=0, low=20, high=total - 20),
        stats_spatial=BitWidthStats(total=total, zero=10, low=30, high=total - 40),
        stats_temporal=t_stats if temporal else None,
        vpu_elems=out_elems,
    )


def build_trace(num_steps=4, compute_layer=True, memory_layer=True):
    """Two layers: 'fast' wins with temporal, 'heavy' is memory-bound."""
    trace = RichTrace()
    for s in range(num_steps):
        temporal = s > 0
        if compute_layer:
            trace.append(
                rich_step(s, "fast", temporal=temporal, macs=100_000,
                          in_elems=10, out_elems=10)
            )
        if memory_layer:
            trace.append(
                rich_step(s, "heavy", temporal=temporal, macs=100,
                          in_elems=5_000, out_elems=5_000)
            )
    return trace


def test_lower_dense_all_dense():
    trace = lower_dense(build_trace())
    assert (trace.col("mode") == DENSE_ID).all()


def test_lower_spatial_all_spatial():
    trace = lower_spatial(build_trace())
    assert (trace.col("mode") == SPATIAL_ID).all()


def test_lower_temporal_first_step_dense():
    trace = lower_temporal(build_trace())
    assert (modes_at(trace, 0) == DENSE_ID).all()
    assert (modes_at(trace, 1) == TEMPORAL_ID).all()


def test_lower_temporal_attention_guard():
    trace = RichTrace()
    for s in range(2):
        trace.append(rich_step(s, "attn.qk", temporal=s > 0, kind="attn_qk"))
    lowered = lower_temporal(trace, attention_diff=False)
    assert (lowered.col("mode") == DENSE_ID).all()


def test_defo_keeps_compute_layer_temporal():
    report = run_defo(build_trace(), StubHardware())
    assert report.decisions["fast"] is ExecutionMode.TEMPORAL
    assert report.decisions["heavy"] is ExecutionMode.DENSE
    assert report.changed_layers == ["heavy"]
    assert 0.0 < report.changed_fraction < 1.0


def test_defo_assigns_decision_to_later_steps():
    report = run_defo(build_trace(num_steps=5), StubHardware())
    for s in (2, 3, 4):
        assert report.assigned[("fast", s)] is ExecutionMode.TEMPORAL
        assert report.assigned[("heavy", s)] is ExecutionMode.DENSE


def test_defo_plus_uses_spatial_fallback():
    report = run_defo(build_trace(), StubHardware(), plus=True)
    assert report.plus
    assert report.decisions["heavy"] is ExecutionMode.SPATIAL
    assert (modes_at(report.trace, 0) == SPATIAL_ID).all()


def test_defo_accuracy_perfect_on_stationary_trace():
    report = run_defo(build_trace(num_steps=6), StubHardware())
    assert report.accuracy == 1.0


def test_defo_requires_two_steps():
    with pytest.raises(ValueError):
        run_defo(build_trace(num_steps=1), StubHardware())


def test_dynamic_defo_switches_on_drift():
    """A layer whose temporal stats degrade mid-run gets switched off."""
    trace = RichTrace()
    for s in range(6):
        if s < 3:
            trace.append(rich_step(s, "drifty", temporal=s > 0,
                                   zero=80, low=15, high=5, macs=100_000))
        else:
            # Similarity collapses: everything becomes full bit-width and the
            # activation volume makes the extra state traffic dominate.
            trace.append(rich_step(s, "drifty", zero=0, low=0, high=100,
                                   macs=100_000, in_elems=5_000,
                                   out_elems=5_000))
    static = run_defo(trace, StubHardware())
    dynamic = run_defo(trace, StubHardware(), dynamic=True)
    assert static.decisions["drifty"] is ExecutionMode.TEMPORAL
    # Dynamic-Ditto must abandon temporal processing after the drift.
    last_step = max(s for (_, s) in dynamic.assigned)
    assert dynamic.assigned[("drifty", last_step)] is ExecutionMode.DENSE
    hw = StubHardware()
    assert hw.total_cycles(dynamic.trace) < hw.total_cycles(static.trace)


def test_ideal_at_least_as_good_as_defo():
    trace = build_trace(num_steps=6)
    hw = StubHardware()
    defo = run_defo(trace, hw)
    ideal = run_ideal(trace, hw)
    assert hw.total_cycles(ideal) <= hw.total_cycles(defo.trace) + 1e-9


def test_ideal_first_step_fallback():
    trace = build_trace()
    ideal = run_ideal(trace, StubHardware())
    assert (modes_at(ideal, 0) == DENSE_ID).all()


def test_defo_summary_strings():
    report = run_defo(build_trace(), StubHardware())
    assert "Defo" in report.summary()
    plus = run_defo(build_trace(), StubHardware(), plus=True, dynamic=True)
    assert "Dynamic-Defo+" in plus.summary()
