"""The quantized layers' dense epilogues, pinned bit for bit.

Every quantized layer dequantizes its integer GEMM output straight from the
accumulator (float32 on the exact-f32 path, a strided view for row-shift
convs) with one float64 multiply-add.  These tests hold each layer's output
to the naive reference ``np.ascontiguousarray(gemm_out, np.float64) *
(s_in * s_w) + bias`` - for convs, linears, self-attention's fused Q/K/V
projection and the attention products - across weight granularities, bias,
strides and the three ways a layer executes (dense, recording, temporal).
"""

import numpy as np
import pytest

from repro.core.modes import ExecutionMode
from repro.core.trace import TraceRecorder
from repro.nn import Attention, Conv2d, Linear, Parameter
from repro.nn import functional as F
from repro.quant import QAttention, QConv2d, QLinear

# (mode, record_temporal): dense, recording (records temporal, executes
# dense) and the temporal executor.
EXECUTIONS = {
    "dense": (ExecutionMode.DENSE, False),
    "recording": (ExecutionMode.DENSE, True),
    "temporal": (ExecutionMode.TEMPORAL, False),
}


def _naive(gemm_out, s_in, s_w, bias):
    out = np.ascontiguousarray(gemm_out, np.float64) * (s_in * s_w)
    if bias is not None:
        out += bias
    return out


def _steps(layer, execution, inputs):
    """Run ``layer`` over ``inputs`` as ``execution`` under a recorder;
    yields ``(x, out)`` per step."""
    layer.mode, layer.record_temporal = EXECUTIONS[execution]
    for x in inputs:
        with TraceRecorder():
            out = layer(x)
        yield x, out


def _inputs(rng, shape, steps=3):
    x = rng.standard_normal(shape)
    return [x + 0.05 * i * rng.standard_normal(shape) for i in range(steps)]


def _as_f64(q):
    return np.asarray(q, dtype=np.float64)


# (in_c, kernel, stride, padding): the 3x3 row-shift conv, its 1x1 operand
# as is, the strided im2col conv and the 576-term conv whose float32 slices
# sum in float64.
CONV_CASES = [(3, 3, 1, 1), (5, 1, 1, 0), (3, 3, 2, 1), (64, 3, 1, 1)]


@pytest.mark.parametrize("execution", list(EXECUTIONS))
@pytest.mark.parametrize("per_channel", [False, True])
@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("case", CONV_CASES, ids=lambda c: "c{}-k{}-s{}-p{}".format(*c))
def test_qconv_epilogue_matches_naive(case, bias, per_channel, execution):
    in_c, kernel, stride, padding = case
    rng = np.random.default_rng(in_c + kernel + stride)
    fp = Conv2d(in_c, 6, kernel, stride=stride, padding=padding, bias=bias, rng=rng)
    layer = QConv2d.from_float(fp, per_channel=per_channel)
    layer.input_quant.scale = 0.02
    s_w = np.asarray(layer.weight_scale)
    if per_channel:
        s_w = s_w.reshape(1, -1, 1, 1)
    b = None if layer.bias is None else layer.bias.reshape(1, -1, 1, 1)
    for x, out in _steps(layer, execution, _inputs(rng, (2, in_c, 7, 7))):
        q_in = _as_f64(layer.input_quant.quantize(x))
        gemm_out = F.conv2d(q_in, _as_f64(layer.q_weight), stride=stride, padding=padding)
        np.testing.assert_array_equal(out, _naive(gemm_out, 0.02, s_w, b))
        # GroupNorm's flat per-group reshape relies on this layout.
        assert out.dtype == np.float64 and out.flags.c_contiguous
    if execution == "temporal":
        assert layer._prev_out_int.dtype == np.float64


@pytest.mark.parametrize("execution", list(EXECUTIONS))
@pytest.mark.parametrize("per_channel", [False, True])
@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("in_features", [16, 600])  # float32 and float64 GEMMs
def test_qlinear_epilogue_matches_naive(in_features, bias, per_channel, execution):
    rng = np.random.default_rng(in_features)
    layer = QLinear.from_float(
        Linear(in_features, 5, bias=bias, rng=rng), per_channel=per_channel
    )
    assert layer._use_f32 == (in_features < 515)
    layer.input_quant.scale = 0.02
    for x, out in _steps(layer, execution, _inputs(rng, (2, 3, in_features))):
        q_in = _as_f64(layer.input_quant.quantize(x))
        gemm_out = q_in @ _as_f64(layer.q_weight).T
        np.testing.assert_array_equal(
            out, _naive(gemm_out, 0.02, layer.weight_scale, layer.bias)
        )
    if execution == "temporal":
        assert layer._prev_out_int.dtype == np.float64


def _attention(rng, per_channel, bias, tokens=6):
    fp = Attention(8, num_heads=2, rng=rng)
    if bias:
        for proj in (fp.to_q, fp.to_k, fp.to_v):
            proj.bias = Parameter(rng.standard_normal(8))
    return QAttention.from_float(fp, per_channel=per_channel)


def _reference_attention(layer, x):
    """The layer's forward, each epilogue the naive reference, from the
    layer's own (frozen) quantizer scales."""
    s_in = layer.input_quant.scale
    q_in = _as_f64(layer.input_quant.quantize(x))
    q_full, k_full, v_full = (
        _naive(q_in @ _as_f64(c.q_weight).T, s_in, c.weight_scale, c.bias)
        for c in (layer.to_q, layer.to_k, layer.to_v)
    )
    q, k, v = (layer._split(t) for t in (q_full, k_full, v_full))
    qq, qk, qv = (
        _as_f64(quant.quantize(t))
        for quant, t in ((layer.q_quant, q), (layer.k_quant, k), (layer.v_quant, v))
    )
    s_int = qq @ qk.transpose(0, 1, 3, 2)
    scores = _naive(s_int, layer.q_quant.scale, layer.k_quant.scale, None)
    probs = F.softmax(scores / float(np.sqrt(layer.head_dim)), axis=-1)
    qp = _as_f64(layer.p_quant.quantize(probs))
    o = _naive(qp @ qv, layer.p_quant.scale, layer.v_quant.scale, None)
    b, h, t, d = o.shape
    merged = o.transpose(0, 2, 1, 3).reshape(b, t, h * d)
    out = layer.to_out
    q_merged = _as_f64(out.input_quant.quantize(merged))
    return (q_full, k_full, v_full), _naive(
        q_merged @ _as_f64(out.q_weight).T, out.input_quant.scale, out.weight_scale, out.bias
    )


@pytest.mark.parametrize("execution", list(EXECUTIONS))
@pytest.mark.parametrize("per_channel", [False, True])
@pytest.mark.parametrize("bias", [False, True])
def test_qattention_epilogues_match_naive(bias, per_channel, execution):
    rng = np.random.default_rng(3)
    layer = _attention(rng, per_channel, bias)
    layer.input_quant.scale = 0.02
    layer.to_out.input_quant.scale = 0.02
    seen = {}
    for child in (layer.to_q, layer.to_k, layer.to_v):
        child.register_forward_hook(lambda m, args, out: seen.__setitem__(m, out))
    for child in (layer.to_q, layer.to_k, layer.to_v, layer.to_out):
        child.mode, child.record_temporal = EXECUTIONS[execution]
    for x, out in _steps(layer, execution, _inputs(rng, (2, 6, 8))):
        projections, reference = _reference_attention(layer, x)
        np.testing.assert_array_equal(out, reference)
        for child, expected in zip((layer.to_q, layer.to_k, layer.to_v), projections):
            np.testing.assert_array_equal(seen[child], expected)
    if execution == "temporal":
        # The executor holds float64 integer outputs after its dense first
        # step, even where the GEMMs ran in float32.
        assert layer._qkv_weight.dtype == np.float32
        assert layer._prev_out_int.dtype == np.float64
        assert layer._prev["s"].dtype == layer._prev["o"].dtype == np.float64


def test_temporal_state_is_float64_after_the_dense_first_step():
    """A TEMPORAL layer's first step finds no state and runs dense through
    float32 GEMMs; what it holds for the next step is still float64."""
    rng = np.random.default_rng(0)
    conv = QConv2d.from_float(Conv2d(3, 4, 3, padding=1, rng=rng))
    lin = QLinear.from_float(Linear(8, 4, rng=rng))
    attn = _attention(rng, per_channel=False, bias=False)
    for layer, shape in ((conv, (1, 3, 5, 5)), (lin, (1, 8)), (attn, (1, 6, 8))):
        layer.mode = ExecutionMode.TEMPORAL
        with TraceRecorder() as rec:
            layer(rng.standard_normal(shape))
        assert all(step.stats_temporal is None for step in rec.trace)  # dense
        assert layer._prev_out_int.dtype == np.float64
    assert conv._use_f32 and lin._use_f32
    assert attn._prev["s"].dtype == attn._prev["o"].dtype == np.float64


# -- weight-first linear GEMMs and int16 recording ---------------------------

def _i64(a):
    return np.asarray(a).astype(np.int64)


def _int64_linear(q_in, q_weight):
    return np.einsum("...i,oi->...o", _i64(q_in), _i64(q_weight))


# (in, out) of DiT's fused Q/K/V projection and MLP output, and DDPM's fused
# Q/K/V projection.
LINEAR_SHAPES = [(256, 768), (512, 256), (32, 96)]


@pytest.mark.parametrize("execution", list(EXECUTIONS))
@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("shape", LINEAR_SHAPES, ids=lambda s: "{}to{}".format(*s))
def test_qlinear_matches_int64_einsum(shape, batch, execution):
    """The weight-first GEMM's transposed accumulator, dequantized into a
    C-contiguous output, equals the int64 product exactly; the temporal
    executor's held output is that product."""
    in_features, out_features = shape
    rng = np.random.default_rng(in_features + batch)
    layer = QLinear.from_float(Linear(in_features, out_features, rng=rng))
    assert layer.q_weight.flags.c_contiguous
    assert layer.q_weight.shape == (out_features, in_features)
    layer.input_quant.scale = 0.02
    for x, out in _steps(layer, execution, _inputs(rng, (batch, 5, in_features))):
        q_in = layer.input_quant.quantize(x)
        exact = _int64_linear(q_in, layer.q_weight)
        np.testing.assert_array_equal(
            out, _naive(exact, 0.02, layer.weight_scale, layer.bias)
        )
        assert out.shape == (batch, 5, out_features) and out.flags.c_contiguous
        if execution == "temporal":
            np.testing.assert_array_equal(layer._prev_out_int, exact)
    _assert_held_input(layer, q_in, execution)


def _assert_held_input(layer, q_in, execution):
    """A recording layer holds its input narrowed to int16, the temporal
    executor in the GEMM's float32, a dense layer nothing."""
    held = layer._prev_q_in
    if execution == "dense":
        assert held is None
        return
    assert held.dtype == (np.int16 if execution == "recording" else np.float32)
    np.testing.assert_array_equal(held, q_in)


@pytest.mark.parametrize("execution", list(EXECUTIONS))
@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("dim, heads", [(256, 4), (32, 2)], ids=["dit", "ddpm"])
def test_fused_qkv_matches_int64_einsum(dim, heads, batch, execution):
    """Self-attention's fused Q/K/V projection: each child's block of the
    one (3*dim, in) GEMM equals its own int64 product, and the attention
    holds int16 operands when recording, float ones when executing."""
    rng = np.random.default_rng(dim + batch)
    layer = QAttention.from_float(Attention(dim, num_heads=heads, rng=rng))
    assert layer._qkv_weight.shape == (3 * dim, dim)
    layer.input_quant.scale = 0.02
    layer.to_out.input_quant.scale = 0.02
    children = (layer.to_q, layer.to_k, layer.to_v)
    seen = {}
    for child in children:
        child.register_forward_hook(lambda m, args, out: seen.__setitem__(m, out))
        child.mode, child.record_temporal = EXECUTIONS[execution]
    layer.to_out.mode, layer.to_out.record_temporal = EXECUTIONS[execution]
    for x, _ in _steps(layer, execution, _inputs(rng, (batch, 6, dim))):
        q_in = layer.input_quant.quantize(x)
        for child in children:
            exact = _int64_linear(q_in, child.q_weight)
            np.testing.assert_array_equal(
                seen[child], _naive(exact, 0.02, child.weight_scale, child.bias)
            )
        if execution == "temporal":
            np.testing.assert_array_equal(
                layer._prev_out_int, _int64_linear(q_in, layer._qkv_weight)
            )
    _assert_held_input(layer, q_in, execution)
    if execution == "dense":
        assert not layer._prev
        return
    assert set(layer._prev) >= {"q", "k", "p", "v"}
    dtype = np.int16 if execution == "recording" else np.float32
    assert all(layer._prev[name].dtype == dtype for name in "qkpv")
    q, k, v = (
        quant.quantize(layer._split(block), out_dtype=np.float32)
        for quant, block in zip(
            (layer.q_quant, layer.k_quant, layer.v_quant),
            (seen[child] for child in children),
        )
    )
    for name, expected in zip("qkv", (q, k, v)):
        np.testing.assert_array_equal(layer._prev[name], expected)


def test_recording_holds_int16_beyond_8_bits():
    """A 12-bit recording layer's held int16 input keeps values an int8
    narrowing would wrap."""
    rng = np.random.default_rng(12)
    layer = QLinear.from_float(Linear(16, 4, rng=rng), bits=12)
    layer.input_quant.scale = 0.001
    x = rng.standard_normal((2, 16))
    for _, _ in _steps(layer, "recording", [x, x]):
        pass
    q_in = layer.input_quant.quantize(x)
    assert np.abs(q_in).max() > 127
    _assert_held_input(layer, q_in, "recording")
