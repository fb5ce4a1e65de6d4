"""Unit tests for trace records, lowering, and byte-traffic accounting."""

import numpy as np
import pytest

from repro.core import ExecutionMode, RichTrace, derive_layer_step
from repro.core.trace import ACT_BYTES, STATE_BYTES, Trace, TraceRecorder

from helpers import make_rich


def test_dense_lowering_bytes():
    step = derive_layer_step(make_rich(), ExecutionMode.DENSE)
    assert step.bytes_in == 100 * ACT_BYTES
    assert step.bytes_weight == 50 * ACT_BYTES
    assert step.bytes_out == 200 * ACT_BYTES
    assert step.bytes_extra == 0
    assert step.stats.high == 60


def test_temporal_lowering_adds_state_traffic():
    step = derive_layer_step(make_rich(), ExecutionMode.TEMPORAL, "none")
    # prev input load + current input store + state load/store
    expected_extra = 100 + 100 + 2 * 200 * STATE_BYTES
    assert step.bytes_extra == expected_extra
    assert step.stats.zero == 40
    assert step.mode is ExecutionMode.TEMPORAL


def test_temporal_without_stats_falls_back_dense():
    step = derive_layer_step(make_rich(temporal=False), ExecutionMode.TEMPORAL)
    assert step.mode is ExecutionMode.DENSE
    assert step.bytes_extra == 0


def test_spatial_lowering_no_extra_bytes():
    step = derive_layer_step(make_rich(), ExecutionMode.SPATIAL)
    assert step.bytes_extra == 0
    assert step.stats.zero == 10


def test_chained_bypass_skips_prev_input():
    plain = derive_layer_step(make_rich(), ExecutionMode.TEMPORAL, "chained")
    chained = derive_layer_step(
        make_rich(chained=True), ExecutionMode.TEMPORAL, "chained"
    )
    assert plain.bytes_extra - chained.bytes_extra == 100 * ACT_BYTES


def test_sign_mask_bypass_only_for_silu_groupnorm():
    silu = derive_layer_step(
        make_rich(producer="silu"), ExecutionMode.TEMPORAL, "sign_mask"
    )
    ln = derive_layer_step(
        make_rich(producer="layernorm"), ExecutionMode.TEMPORAL, "sign_mask"
    )
    assert ln.bytes_extra - silu.bytes_extra == 100 * ACT_BYTES


def test_both_bypass_is_union():
    for kwargs in ({"chained": True}, {"producer": "groupnorm"}):
        step = derive_layer_step(make_rich(**kwargs), ExecutionMode.TEMPORAL, "both")
        baseline = derive_layer_step(make_rich(), ExecutionMode.TEMPORAL, "both")
        assert step.bytes_extra < baseline.bytes_extra


def test_unknown_bypass_style_raises():
    with pytest.raises(ValueError):
        derive_layer_step(make_rich(), ExecutionMode.TEMPORAL, "magic")


def test_sub_ops_only_in_temporal():
    rich = make_rich(sub_ops=2)
    assert derive_layer_step(rich, ExecutionMode.TEMPORAL).sub_ops == 2
    assert derive_layer_step(rich, ExecutionMode.DENSE).sub_ops == 1
    assert derive_layer_step(rich, ExecutionMode.SPATIAL).sub_ops == 1


def test_rich_trace_lower_and_grouping():
    trace = RichTrace()
    for step in range(3):
        for name in ("a", "b"):
            trace.append(make_rich(step_index=step, name=name, temporal=step > 0))
    lowered = trace.lower(lambda r: ExecutionMode.TEMPORAL)
    assert isinstance(lowered, Trace)
    assert len(lowered) == 6
    assert lowered.steps[0].mode is ExecutionMode.DENSE  # no temporal stats yet
    assert lowered.steps[-1].mode is ExecutionMode.TEMPORAL
    assert trace.num_steps() == 3
    assert trace.layer_names() == ["a", "b"]
    assert set(trace.by_layer()) == {"a", "b"}
    assert set(trace.by_step()) == {0, 1, 2}


def test_trace_totals():
    trace = RichTrace()
    trace.append(make_rich())
    lowered = trace.lower(lambda r: ExecutionMode.DENSE)
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
