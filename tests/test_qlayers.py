"""Exactness and behaviour tests for the quantized difference-processing layers.

The central claim of the Ditto algorithm (paper Section IV) is that temporal
difference processing is *numerically equivalent* to dense quantized
execution; these tests verify it layer by layer, including the attention
identities, under randomized inputs (hypothesis).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.modes import ExecutionMode
from repro.core.trace import TraceRecorder
from repro.nn import Attention, Conv2d, Linear, backends
from repro.quant import (
    QAttention,
    QConv2d,
    QLinear,
    iter_qlayers,
    quantize_model,
    reset_model_state,
    set_model_mode,
)


def _drifted(rng, shape, scale=0.05):
    """A pair of tensors emulating adjacent-time-step inputs."""
    a = rng.normal(size=shape)
    b = a + rng.normal(0.0, scale, size=shape)
    return a, b


# ---------------------------------------------------------------------------
# QLinear
# ---------------------------------------------------------------------------

def test_qlinear_dense_matches_fakequant(rng):
    fp = Linear(8, 4, rng=rng)
    q = QLinear.from_float(fp)
    x = rng.normal(size=(3, 8))
    out = q(x)
    expected = (
        q.input_quant.quantize(x) @ q.q_weight.T
    ) * q.input_quant.scale * q.weight_scale + fp.bias.data
    np.testing.assert_allclose(out, expected, rtol=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 5000), steps=st.integers(2, 5))
def test_qlinear_temporal_exactness(seed, steps):
    rng = np.random.default_rng(seed)
    fp = Linear(8, 4, rng=rng)
    q_dense = QLinear.from_float(fp)
    q_temp = QLinear.from_float(fp)
    x = rng.normal(size=(2, 8))
    history = [x]
    for _ in range(steps - 1):
        history.append(history[-1] + rng.normal(0.0, 0.05, size=x.shape))
    q_dense.mode = ExecutionMode.DENSE
    q_temp.mode = ExecutionMode.TEMPORAL
    for xt in history:
        dense = q_dense(xt)
        temporal = q_temp(xt)
        np.testing.assert_array_equal(dense, temporal)


def test_qlinear_spatial_exactness(rng):
    fp = Linear(8, 4, rng=rng)
    q_dense = QLinear.from_float(fp)
    q_spatial = QLinear.from_float(fp)
    q_spatial.mode = ExecutionMode.SPATIAL
    x = rng.normal(size=(6, 8))
    np.testing.assert_array_equal(q_dense(x), q_spatial(x))


def test_qlinear_temporal_without_state_falls_back_dense(rng):
    fp = Linear(8, 4, rng=rng)
    q = QLinear.from_float(fp)
    q.mode = ExecutionMode.TEMPORAL
    out = q(rng.normal(size=(1, 8)))  # no previous step yet
    assert out.shape == (1, 4)


def test_qlinear_state_reset(rng):
    fp = Linear(8, 4, rng=rng)
    q = QLinear.from_float(fp)
    q(rng.normal(size=(1, 8)))
    assert q._prev_q_in is not None
    q.reset_state()
    assert q._prev_q_in is None and q._prev_out_int is None


def test_qlinear_shape_change_resets_diff(rng):
    fp = Linear(8, 4, rng=rng)
    q = QLinear.from_float(fp)
    q.mode = ExecutionMode.TEMPORAL
    q(rng.normal(size=(1, 8)))
    out = q(rng.normal(size=(3, 8)))  # different batch: diff impossible
    assert out.shape == (3, 4)


# ---------------------------------------------------------------------------
# QConv2d
# ---------------------------------------------------------------------------

# (in_c, out_c, kernel, stride, padding, hw): both paddings, the stride-2
# Downsample, the 1x1 skip, and a 3x3 past the exact-f32 gate (64 * 9 *
# 2^15 >= 2^24), which takes the float64 path.
_CONV_CASES = [
    (3, 5, 3, 1, 0, 6),
    (3, 5, 3, 1, 1, 6),
    (2, 4, 3, 2, 1, 8),
    (4, 6, 1, 1, 0, 5),
    (64, 4, 3, 1, 1, 4),
]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 5000))
def test_qconv_temporal_exactness(seed):
    """Temporal (unfolded-difference) forwards stay bit-identical to dense
    ones over several steps, on every backend, including a step where a
    per-row grid change invalidates some rows' state (a TDQ boundary)."""
    for backend in backends.available_backends():
        for in_c, out_c, kernel, stride, padding, hw in _CONV_CASES:
            rng = np.random.default_rng(seed)
            fp = Conv2d(in_c, out_c, kernel, stride=stride, padding=padding, rng=rng)
            q_dense = QConv2d.from_float(fp)
            q_temp = QConv2d.from_float(fp)
            q_temp.mode = ExecutionMode.TEMPORAL
            assert q_temp._use_f32 == (in_c < 64)
            x = rng.normal(size=(3, in_c, hw, hw))
            scales = np.full((3, 1, 1, 1), np.abs(x).max() / 127.0)
            modes = []
            with backends.use_backend(backend):
                for step in range(4):
                    if step == 2:  # rows 0 and 2 cross a cluster boundary
                        scales = scales * np.array([1.5, 1.0, 0.75])[:, None, None, None]
                    steps = []
                    for q in (q_dense, q_temp):
                        q.input_quant.scale = scales
                        with TraceRecorder() as rec:
                            steps.append((q(x), rec.trace.steps[0]))
                    (out_d, rec_d), (out_t, rec_t) = steps
                    np.testing.assert_array_equal(out_d, out_t)
                    # The spatial stats re-unfold the input after the GEMM.
                    assert rec_t.stats_spatial == rec_d.stats_spatial
                    modes.append(rec_t.executed_mode)
                    x = x + rng.normal(0.0, 0.05, size=x.shape)
            assert modes == [ExecutionMode.DENSE] + [ExecutionMode.TEMPORAL] * 3


def test_qconv_strided_temporal_exactness(rng):
    fp = Conv2d(2, 4, 3, stride=2, padding=1, rng=rng)
    q_dense = QConv2d.from_float(fp)
    q_temp = QConv2d.from_float(fp)
    q_temp.mode = ExecutionMode.TEMPORAL
    a, b = _drifted(rng, (1, 2, 8, 8))
    np.testing.assert_array_equal(q_dense(a), q_temp(a))
    np.testing.assert_array_equal(q_dense(b), q_temp(b))


def test_qconv_records_trace(rng):
    fp = Conv2d(2, 4, 3, padding=1, rng=rng)
    q = QConv2d.from_float(fp)
    q.layer_name = "probe"
    with TraceRecorder() as rec:
        q(rng.normal(size=(1, 2, 4, 4)))
    assert len(rec.trace) == 1
    step = rec.trace.steps[0]
    assert step.layer_name == "probe"
    assert step.kind == "conv"
    assert step.macs == 4 * 4 * 4 * (2 * 9)
    assert step.stats_temporal is None  # first step has no diff


# ---------------------------------------------------------------------------
# QAttention
# ---------------------------------------------------------------------------

@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2000))
def test_qattention_self_temporal_exactness(seed):
    """S_t = S_prev + Q_t dK + dQ K_prev must equal dense Q_t K_t."""
    rng = np.random.default_rng(seed)
    fp = Attention(8, num_heads=2, rng=rng)
    q_dense = QAttention.from_float(fp)
    q_temp = QAttention.from_float(fp)
    q_temp.mode = ExecutionMode.TEMPORAL
    for child in (q_temp.to_q, q_temp.to_k, q_temp.to_v, q_temp.to_out):
        child.mode = ExecutionMode.TEMPORAL
    a, b = _drifted(rng, (1, 5, 8))
    np.testing.assert_allclose(q_dense(a), q_temp(a), rtol=1e-12)
    np.testing.assert_allclose(q_dense(b), q_temp(b), rtol=1e-12)


def test_qattention_cross_context_cached(rng):
    fp = Attention(8, num_heads=2, context_dim=6, rng=rng)
    q = QAttention.from_float(fp)
    ctx = rng.normal(size=(1, 3, 6))
    x1 = rng.normal(size=(1, 5, 8))
    with TraceRecorder() as rec:
        q(x1, context=ctx)
        q(x1 + 0.01, context=ctx)
    names = [s.layer_name for s in rec.trace]
    # to_k / to_v execute once (context constant), to_q twice.
    assert names.count(".to_k") == 1
    assert names.count(".to_v") == 1
    assert names.count(".to_q") == 2


def test_qattention_cross_temporal_exactness(rng):
    fp = Attention(8, num_heads=2, context_dim=6, rng=rng)
    q_dense = QAttention.from_float(fp)
    q_temp = QAttention.from_float(fp)
    q_temp.mode = ExecutionMode.TEMPORAL
    ctx = rng.normal(size=(1, 3, 6))
    a, b = _drifted(rng, (1, 5, 8))
    np.testing.assert_allclose(
        q_dense(a, context=ctx), q_temp(a, context=ctx), rtol=1e-12
    )
    np.testing.assert_allclose(
        q_dense(b, context=ctx), q_temp(b, context=ctx), rtol=1e-12
    )


def test_qattention_cross_requires_context(rng):
    fp = Attention(8, num_heads=2, context_dim=6, rng=rng)
    q = QAttention.from_float(fp)
    with pytest.raises(ValueError):
        q(rng.normal(size=(1, 5, 8)))


def test_qattention_temporal_records_two_sub_ops(rng):
    fp = Attention(8, num_heads=2, rng=rng)
    q = QAttention.from_float(fp)
    q.mode = ExecutionMode.TEMPORAL
    a, b = _drifted(rng, (1, 5, 8))
    with TraceRecorder() as rec:
        q(a)
        q(b)
    qk_steps = [s for s in rec.trace if s.kind == "attn_qk"]
    assert qk_steps[0].stats_temporal is None
    assert qk_steps[1].stats_temporal is not None
    assert qk_steps[1].sub_ops_temporal == 2


def test_qattention_cross_single_sub_op(rng):
    fp = Attention(8, num_heads=2, context_dim=6, rng=rng)
    q = QAttention.from_float(fp)
    ctx = rng.normal(size=(1, 3, 6))
    a, b = _drifted(rng, (1, 5, 8))
    with TraceRecorder() as rec:
        q(a, context=ctx)
        q(b, context=ctx)
    qk_steps = [s for s in rec.trace if s.kind == "attn_qk"]
    assert qk_steps[1].sub_ops_temporal == 1
    assert qk_steps[1].weight_elems > 0  # K' treated as weight


# ---------------------------------------------------------------------------
# quantize_model
# ---------------------------------------------------------------------------

def _tiny_unet(seed=4):
    from repro.models import UNet

    return UNet(
        in_channels=2,
        base_channels=8,
        channel_mults=(1,),
        attention_levels=(0,),
        block_type="attention",
        rng=np.random.default_rng(seed),
    )


def test_quantize_model_swaps_everything():
    model = quantize_model(_tiny_unet())
    from repro.nn import Attention as FloatAttention
    from repro.nn import Conv2d as FloatConv
    from repro.nn import Linear as FloatLinear

    for _, module in model.named_modules():
        assert not type(module) in (FloatLinear, FloatConv, FloatAttention)


def test_quantize_model_assigns_names():
    model = quantize_model(_tiny_unet())
    names = [name for name, _ in iter_qlayers(model)]
    assert "conv_in" in names
    assert all(name for name in names)


def test_quantize_model_applies_calibration():
    model = _tiny_unet()
    qmodel = quantize_model(model, calibration={"conv_in": 0.125})
    layers = dict(iter_qlayers(qmodel))
    assert layers["conv_in"].input_quant.scale == 0.125


def test_set_mode_and_reset_state_helpers(rng):
    model = quantize_model(_tiny_unet())
    set_model_mode(model, ExecutionMode.TEMPORAL)
    assert all(q.mode is ExecutionMode.TEMPORAL for _, q in iter_qlayers(model))
    model(rng.normal(size=(1, 2, 8, 8)), np.array([3.0]))
    reset_model_state(model)
    assert all(q._prev_q_in is None for _, q in iter_qlayers(model))


def test_full_model_dense_temporal_equivalence(rng):
    """Whole-model invariant: execution mode never changes the output."""
    model = quantize_model(_tiny_unet())
    x1 = rng.normal(size=(1, 2, 8, 8))
    x2 = x1 + rng.normal(0.0, 0.03, size=x1.shape)
    t = np.array([5.0])

    set_model_mode(model, ExecutionMode.DENSE)
    reset_model_state(model)
    dense1, dense2 = model(x1, t), model(x2, t)

    reset_model_state(model)
    set_model_mode(model, ExecutionMode.DENSE)
    _ = model(x1, t)
    set_model_mode(model, ExecutionMode.TEMPORAL)
    temporal2 = model(x2, t)
    np.testing.assert_allclose(temporal2, dense2, rtol=1e-9, atol=1e-12)
