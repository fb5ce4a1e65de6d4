"""Unit tests for BOPs accounting (Fig. 6)."""

import numpy as np
import pytest

from repro.core import ExecutionMode, RichTrace, per_step_relative_bops, relative_bops
from repro.core.bitwidth import BitWidthStats
from repro.core.bops import dense_bops_reference, trace_bops
from repro.core.trace import MODE_ID, Trace

from helpers import lower_one, make_rich


def make_trace(mode, steps=2, temporal=True, sub_ops=1):
    trace = RichTrace()
    for s in range(steps):
        trace.append(
            make_rich(step_index=s, temporal=temporal and s > 0, sub_ops=sub_ops)
        )
    return trace.lower_modes(np.full(len(trace), MODE_ID[mode]))


def per_mac(stats, zero_skipping=True):
    """BOPs per MAC of one record whose temporal operands are ``stats``."""
    rich = make_rich()
    rich.stats_temporal = stats
    trace = lower_one(rich, ExecutionMode.TEMPORAL)
    return trace_bops(trace, zero_skipping) / rich.macs


def test_bops_per_mac_with_zero_skipping():
    stats = BitWidthStats(total=100, zero=50, low=30, high=20)
    # 0.3 * 32 + 0.2 * 64 = 22.4
    assert per_mac(stats) == pytest.approx(22.4)


def test_bops_per_mac_without_zero_skipping():
    stats = BitWidthStats(total=100, zero=50, low=30, high=20)
    # zeros cost a 4-bit op: + 0.5 * 32
    assert per_mac(stats, zero_skipping=False) == pytest.approx(38.4)


def test_dense_layer_costs_full_bops():
    """Dense execution is the Fig. 6a baseline: exactly macs * 8 * 8 BOPs."""
    step = lower_one(make_rich(), ExecutionMode.DENSE)
    assert trace_bops(step) == pytest.approx(step.total_macs() * 64)


def test_dense_relative_bops_is_unity():
    trace = make_trace(ExecutionMode.DENSE, steps=3)
    assert relative_bops(trace) == pytest.approx(1.0)


def test_relative_bops_temporal_below_dense():
    temporal = make_trace(ExecutionMode.TEMPORAL, steps=4)
    dense = make_trace(ExecutionMode.DENSE, steps=4)
    assert relative_bops(temporal) < relative_bops(dense) <= 1.0


def test_relative_bops_bounds():
    trace = make_trace(ExecutionMode.TEMPORAL, steps=3)
    value = relative_bops(trace)
    assert 0.0 < value < 1.0


def test_sub_ops_double_attention_cost():
    single = lower_one(make_rich(sub_ops=1), ExecutionMode.TEMPORAL)
    double = lower_one(make_rich(sub_ops=2), ExecutionMode.TEMPORAL)
    assert trace_bops(double) == pytest.approx(2 * trace_bops(single))


def test_dense_reference_ignores_sub_ops():
    trace = make_trace(ExecutionMode.TEMPORAL, steps=2, sub_ops=2)
    assert dense_bops_reference(trace) == 2 * 10_000 * 64


def test_per_step_relative_bops_keys():
    trace = make_trace(ExecutionMode.TEMPORAL, steps=5)
    per_step = per_step_relative_bops(trace)
    assert set(per_step) == {0, 1, 2, 3, 4}
    # First step is dense -> highest relative BOPs.
    assert per_step[0] == max(per_step.values())


def test_empty_trace_relative_bops():
    assert relative_bops(Trace()) == 0.0
