"""Unit tests for trace records, lowering, and byte-traffic accounting."""

import numpy as np
import pytest

from repro.core import ExecutionMode, RichTrace
from repro.core.trace import (
    ACT_BYTES,
    MODE_ID,
    STATE_BYTES,
    TEMPORAL_ID,
    Trace,
    TraceRecorder,
)

from helpers import lower_one, make_rich, only

DENSE = ExecutionMode.DENSE
TEMPORAL = ExecutionMode.TEMPORAL
SPATIAL = ExecutionMode.SPATIAL


def test_dense_lowering_bytes():
    step = lower_one(make_rich(), DENSE)
    assert only(step, "bytes_in") == 100 * ACT_BYTES
    assert only(step, "bytes_weight") == 50 * ACT_BYTES
    assert only(step, "bytes_out") == 200 * ACT_BYTES
    assert only(step, "bytes_extra") == 0
    assert only(step, "st_high") == 60


def test_temporal_lowering_adds_state_traffic():
    step = lower_one(make_rich(), TEMPORAL, "none")
    # prev input load + current input store + state load/store
    expected_extra = 100 + 100 + 2 * 200 * STATE_BYTES
    assert only(step, "bytes_extra") == expected_extra
    assert only(step, "st_zero") == 40
    assert only(step, "mode") == MODE_ID[TEMPORAL]


def test_temporal_without_stats_falls_back_dense():
    step = lower_one(make_rich(temporal=False), TEMPORAL)
    assert only(step, "mode") == MODE_ID[DENSE]
    assert only(step, "bytes_extra") == 0


def test_spatial_lowering_no_extra_bytes():
    step = lower_one(make_rich(), SPATIAL)
    assert only(step, "bytes_extra") == 0
    assert only(step, "st_zero") == 10


def test_chained_bypass_skips_prev_input():
    plain = lower_one(make_rich(), TEMPORAL, "chained")
    chained = lower_one(make_rich(chained=True), TEMPORAL, "chained")
    assert (
        only(plain, "bytes_extra") - only(chained, "bytes_extra") == 100 * ACT_BYTES
    )


def test_sign_mask_bypass_only_for_silu_groupnorm():
    silu = lower_one(make_rich(producer="silu"), TEMPORAL, "sign_mask")
    ln = lower_one(make_rich(producer="layernorm"), TEMPORAL, "sign_mask")
    assert only(ln, "bytes_extra") - only(silu, "bytes_extra") == 100 * ACT_BYTES


def test_both_bypass_is_union():
    for kwargs in ({"chained": True}, {"producer": "groupnorm"}):
        step = lower_one(make_rich(**kwargs), TEMPORAL, "both")
        baseline = lower_one(make_rich(), TEMPORAL, "both")
        assert only(step, "bytes_extra") < only(baseline, "bytes_extra")


def test_unknown_bypass_style_raises():
    with pytest.raises(ValueError):
        lower_one(make_rich(), TEMPORAL, "magic")


def test_sub_ops_only_in_temporal():
    rich = make_rich(sub_ops=2)
    assert only(lower_one(rich, TEMPORAL), "sub_ops") == 2
    assert only(lower_one(rich, DENSE), "sub_ops") == 1
    assert only(lower_one(rich, SPATIAL), "sub_ops") == 1


def test_rich_trace_lower_and_grouping():
    trace = RichTrace()
    for step in range(3):
        for name in ("a", "b"):
            trace.append(make_rich(step_index=step, name=name, temporal=step > 0))
    lowered = trace.lower_modes(np.full(len(trace), TEMPORAL_ID))
    assert isinstance(lowered, Trace)
    assert len(lowered) == 6
    modes = lowered.col("mode")
    assert modes[0] == MODE_ID[DENSE]  # no temporal stats yet
    assert modes[-1] == MODE_ID[TEMPORAL]
    assert trace.num_steps() == 3
    assert trace.layer_names() == ["a", "b"]
    assert set(trace.by_layer()) == {"a", "b"}
    assert set(trace.by_step()) == {0, 1, 2}


def test_trace_totals():
    lowered = lower_one(make_rich(), DENSE)
    assert lowered.total_macs() == 10_000
    assert lowered.total_bytes() == 350


def test_recorder_nesting_and_isolation():
    outer = TraceRecorder()
    inner = TraceRecorder()
    with outer:
        assert TraceRecorder.current() is outer
        with inner:
            assert TraceRecorder.current() is inner
        assert TraceRecorder.current() is outer
    assert TraceRecorder.current() is None


def test_recorder_step_index():
    """A record's step is the denoiser-call index the step announced."""
    from repro.quant import set_active_step
    from repro.quant.qlayers import QLinear

    layer = QLinear(np.random.default_rng(0).standard_normal((3, 4)), None)
    x = np.random.default_rng(1).standard_normal((2, 4))
    for announced, recorded in ((7, 7), (np.array([5, 3]), 3), (None, 0)):
        set_active_step(announced)
        try:
            with TraceRecorder() as rec:
                layer(x)
        finally:
            set_active_step(None)
        assert [step.step_index for step in rec.trace] == [recorded]
