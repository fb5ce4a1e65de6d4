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
from repro.nn import Attention, Conv2d, Linear
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
    q.mode = ExecutionMode.TEMPORAL  # only a temporal layer keeps state
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


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 5000),
    out_features=st.integers(1, 70),
    magnitude=st.sampled_from([1e-6, 1.0, 3e4]),
    per_channel=st.booleans(),
)
def test_qlinear_weight_matches_clipped_reference(seed, out_features, magnitude, per_channel):
    """Weight quantization writes the C-contiguous (out, in) copy directly
    and skips the clip: the grid must still equal the clipped reference."""
    rng = np.random.default_rng(seed)
    weight = rng.normal(size=(out_features, 9)) * magnitude
    weight[0, 0] = 0.0
    q = QLinear(weight, None, per_channel=per_channel)
    scale = np.asarray(q.weight_scale).reshape(-1, 1)
    expected = np.clip(np.rint(weight / scale), -128, 127)
    np.testing.assert_array_equal(q.q_weight, expected)
    assert q.q_weight.flags.c_contiguous and q.q_weight.dtype == np.float32


# ---------------------------------------------------------------------------
# QConv2d
# ---------------------------------------------------------------------------

# (in_c, out_c, kernel, stride, padding, hw): both paddings, the stride-2
# Downsample, the 1x1 skip, and a 3x3 whose whole dot product is past the
# exact-f32 gate (64 * 9 * 255 * 128 >= 2^24): its float32 row-shift slices
# (64 * 3 terms each) sum in float64.
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
    ones over several steps, including a step where some rows' grid changes
    (a TDQ boundary): the whole layer then re-runs one dense step."""
    for in_c, out_c, kernel, stride, padding, hw in _CONV_CASES:
        rng = np.random.default_rng(seed)
        fp = Conv2d(in_c, out_c, kernel, stride=stride, padding=padding, rng=rng)
        q_dense = QConv2d.from_float(fp)
        q_temp = QConv2d.from_float(fp)
        q_temp.mode = ExecutionMode.TEMPORAL
        # Stride-1 convs gate per row-shift slice (in_c * kernel terms), so
        # every case runs float32 GEMMs; only the 576-term dot product sums
        # its slices in float64.
        assert q_temp._use_f32
        assert q_temp._sum_f64 == (in_c * kernel * kernel > 514)
        x = rng.normal(size=(3, in_c, hw, hw))
        scales = np.full((3, 1, 1, 1), np.abs(x).max() / 127.0)
        temporal_stats = []
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
            temporal_stats.append(rec_t.stats_temporal is not None)
            x = x + rng.normal(0.0, 0.05, size=x.shape)
        assert temporal_stats == [False, True] * 2


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
# recording: int16 temporal differences at their edges
# ---------------------------------------------------------------------------

def _unnarrowed_stats(*diffs):
    """Bucket float64 differences through int64 ``required_bits`` - no int16
    narrowing anywhere."""
    from repro.core.bitwidth import LOW_BITS, BitWidthStats, required_bits

    bits = np.concatenate(
        [required_bits(np.asarray(d, dtype=np.float64).astype(np.int64)).ravel() for d in diffs]
    )
    zero = int(np.count_nonzero(bits == 0))
    low = int(np.count_nonzero((bits > 0) & (bits <= LOW_BITS)))
    return BitWidthStats(total=bits.size, zero=zero, low=low, high=bits.size - zero - low)


def test_recorded_15_bit_difference_is_exact_at_the_int16_edge():
    """A recording layer takes its temporal difference straight into int16:
    at 15 bits, qmin -> qmax and qmax -> qmin span |d| = 32767, the int16
    limit, and still classify exactly as the float64 difference does."""
    from repro.quant.quantizer import qrange

    qmin, qmax = qrange(15)
    assert qmax - qmin == 32767
    lin = QLinear(np.ones((2, 4)), None, bits=15)
    lin.input_quant.scale = 1.0
    lin.record_temporal = True
    x0 = np.array([[qmin, qmax, qmax, 3.0]])
    x1 = np.array([[qmax, qmin, qmax, -4.0]])
    lin(x0)
    with TraceRecorder() as rec:
        out = lin(x1)
    diff = x1 - x0
    assert np.abs(diff).max() == 32767 and diff.min() == -32767
    assert rec.trace[0].stats_temporal == _unnarrowed_stats(diff)
    assert lin._prev_out_int is None  # recording executes dense
    np.testing.assert_array_equal(out, x1 @ lin.q_weight.T * lin.weight_scale)


def test_recorded_attention_p_difference_is_exact_at_its_edges(rng):
    """The 8-bit softmax operand (fixed scale 1/127) swings 0 -> 127 and
    127 -> 0 between steps while V swings -128 -> 127: the int16 PV
    differences classify exactly as the float64 ones do."""
    att = QAttention.from_float(Attention(8, num_heads=2, rng=rng))
    att.record_temporal = True
    assert att.p_quant.scale == 1.0 / 127.0
    probs0 = np.zeros((1, 2, 3, 3))
    probs0[..., 0] = 1.0
    probs1 = probs0[..., ::-1].copy()  # one-hot moves to the last key
    probs1[0, 0, 0] = 0.5
    qp0, qp1 = (att.p_quant.quantize(p, out_dtype=np.float32) for p in (probs0, probs1))
    qv0 = np.full((1, 2, 3, 4), -128.0, dtype=np.float32)
    qv1 = qv0.copy()
    qv1[..., :2] = 127.0
    att._pv_matmul(qp0, qv0, att._hold(qp0), att._hold(qv0))
    with TraceRecorder() as rec:
        o_int = att._pv_matmul(qp1, qv1, att._hold(qp1), att._hold(qv1))
    d_p, d_v = qp1.astype(np.float64) - qp0, qv1.astype(np.float64) - qv0
    assert {d_p.max(), d_p.min(), d_v.max()} == {127.0, -127.0, 255.0}
    assert rec.trace[0].stats_temporal == _unnarrowed_stats(d_p, d_v)
    assert set(att._prev) == {"p", "v"}  # operands only, no product
    assert att._prev["p"].dtype == att._prev["v"].dtype == np.int16
    np.testing.assert_array_equal(o_int, np.matmul(qp1, qv1))


# ---------------------------------------------------------------------------
# self-attention's shared Q/K/V projection
# ---------------------------------------------------------------------------

def _clustered(x0, num_steps=4):
    """A two-cluster TDQ quantizer whose grid changes at step 2."""
    from repro.quant import TimestepClusteredQuantizer

    quant = TimestepClusteredQuantizer(8, num_clusters=2)
    quant.configure(num_steps)
    quant.observe_step(x0, 0)
    quant.observe_step(3.0 * x0, num_steps - 1)
    quant.freeze_clusters()
    return quant


@pytest.mark.parametrize("per_channel", [False, True])
@pytest.mark.parametrize("quantizer", ["sticky", "clustered"])
@pytest.mark.parametrize(
    "mode", [ExecutionMode.DENSE, ExecutionMode.TEMPORAL, "record"]
)
def test_shared_qkv_projection_matches_unfused_reference(mode, quantizer, per_channel):
    """The fused Q/K/V projection's outputs (seen through the children's
    forward hooks) and trace records equal three standalone QLinear
    forwards of the same weights, step by step.  ``record`` executes dense
    while recording temporal, as an instrumented engine run does."""
    from repro.quant import set_active_step

    rng = np.random.default_rng(17)
    fp = Attention(8, num_heads=2, rng=rng)
    fused = QAttention.from_float(fp, per_channel=per_channel)
    fused.layer_name = "attn"
    refs = [
        QLinear.from_float(proj, per_channel=per_channel)
        for proj in (fp.to_q, fp.to_k, fp.to_v)
    ]
    x = rng.normal(size=(2, 5, 8))
    if quantizer == "clustered":
        fused.share_projection_quantizer(_clustered(x))
        for ref in refs:
            ref.input_quant = _clustered(x)
    recording = mode == "record"
    execution = ExecutionMode.DENSE if recording else mode
    for layer in (fused, fused.to_q, fused.to_k, fused.to_v, fused.to_out, *refs):
        layer.mode = execution
        layer.record_temporal = recording
    for ref, suffix in zip(refs, ("to_q", "to_k", "to_v")):
        ref.layer_name = f"attn.{suffix}"
    seen = {}
    for name in ("to_q", "to_k", "to_v"):
        getattr(fused, name).register_forward_hook(
            lambda module, args, out, name=name: seen.__setitem__(name, (args, out))
        )
    differenced = []
    try:
        for step in range(4):
            set_active_step(step)
            with TraceRecorder() as rec_fused:
                fused(x)
            with TraceRecorder() as rec_ref:
                expected = [ref(x) for ref in refs]
            for name, want in zip(("to_q", "to_k", "to_v"), expected):
                args, got = seen[name]
                assert args[0] is x
                np.testing.assert_array_equal(got, want)
            projections = [
                r for r in rec_fused.trace if r.layer_name.split(".")[-1] in seen
            ]
            assert projections == list(rec_ref.trace)
            differenced.append(projections[0].stats_temporal is not None)
            x = x + rng.normal(0.0, 0.05, size=x.shape)
    finally:
        set_active_step(None)
    if mode is ExecutionMode.DENSE:
        assert differenced == [False] * 4
    elif quantizer == "clustered":  # the grid changes at step 2: one dense re-run
        assert differenced == [False, True] * 2
    else:
        assert differenced == [False] + [True] * 3


def test_shared_qkv_projection_stores_each_weight_once(rng):
    fp = Attention(8, num_heads=2, rng=rng)
    q = QAttention.from_float(fp)
    stacked = q._qkv_weight
    assert stacked.flags.c_contiguous and stacked.shape == (24, 8)
    children = (q.to_q, q.to_k, q.to_v)
    for i, child in enumerate(children):
        assert child.q_weight.base is stacked  # one allocation
        np.testing.assert_array_equal(child.q_weight, stacked[8 * i : 8 * i + 8])
        assert child.q_weight.flags.c_contiguous  # a row block
        assert child.input_quant is q.input_quant
    # A standalone projection stores (out, in) C-contiguous too.
    assert q.to_out.q_weight.flags.c_contiguous


def test_shared_qkv_state_lives_on_the_attention(rng):
    fp = Attention(8, num_heads=2, rng=rng)
    q = QAttention.from_float(fp)
    q.mode = ExecutionMode.TEMPORAL
    q(rng.normal(size=(1, 5, 8)))
    assert q._prev_q_in is not None and q._prev_out_int.shape == (1, 5, 24)
    for child in (q.to_q, q.to_k, q.to_v):
        assert child._prev_q_in is None and child._prev_out_int is None
    q.reset_state()
    assert q._prev_q_in is None and q._prev_out_int is None


def test_static_analysis_verdicts_see_the_shared_projection():
    """The fused projection fires its children's forward hooks, so the Defo
    graph pass still sees SDM's self-attention Q/K/V read the LayerNorm."""
    from repro.core import DittoEngine
    from repro.workloads.suite import get_benchmark

    engine = DittoEngine.from_benchmark(get_benchmark("SDM"), num_steps=2, calibrate=False)
    info = engine.analyze_graph()
    selfs = [
        name for name, q in iter_qlayers(engine.qmodel)
        if isinstance(q, QAttention) and not q.is_cross
    ]
    assert selfs
    for attn in selfs:
        for suffix in ("to_q", "to_k", "to_v"):
            verdict = info[f"{attn}.{suffix}"]
            assert verdict.producer_kind == "layernorm", verdict
            assert not verdict.chained_input
            assert verdict.nonlinear_after
        assert info[f"{attn}.to_out"].chained_input


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


def test_quantize_model_rejects_mismatched_qkv_grids():
    model = _tiny_unet()
    qmodel = quantize_model(_tiny_unet())
    attn = next(
        name for name, q in iter_qlayers(qmodel)
        if isinstance(q, QAttention) and not q.is_cross
    )
    equal = {f"{attn}.{s}": 0.05 for s in ("to_q", "to_k", "to_v")}
    quantize_model(_tiny_unet(), calibration=equal)  # one grid: accepted
    with pytest.raises(ValueError, match="different grids"):
        quantize_model(model, calibration={**equal, f"{attn}.to_k": 0.06})
    with pytest.raises(ValueError, match="different grids"):
        quantize_model(_tiny_unet(), calibration={f"{attn}.to_q": 0.05})


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

    # TEMPORAL from the first call: it executes dense on empty state, the
    # second call on the differences.
    reset_model_state(model)
    set_model_mode(model, ExecutionMode.TEMPORAL)
    temporal1 = model(x1, t)
    with TraceRecorder() as rec:
        temporal2 = model(x2, t)
    assert all(s.stats_temporal is not None for s in rec.trace)
    np.testing.assert_allclose(temporal1, dense1, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(temporal2, dense2, rtol=1e-9, atol=1e-12)

    # Recording temporal while executing dense: the dense outputs and the
    # temporal executor's records.
    reset_model_state(model)
    set_model_mode(model, ExecutionMode.DENSE, record_temporal=True)
    model(x1, t)
    with TraceRecorder() as rec_recorded:
        recorded2 = model(x2, t)
    assert list(rec_recorded.trace) == list(rec.trace)
    np.testing.assert_array_equal(recorded2, dense2)
