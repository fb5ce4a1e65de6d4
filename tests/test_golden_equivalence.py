"""Golden-equivalence suite for the single-pass/columnar instrumentation.

Pins the three invariants the PR-2 perf rebuild must not move:

* the columnar ``RichTrace``/``Trace`` stores round-trip exactly to their
  dataclass views (append -> view -> append), including through pickle;
* the fused ``classify_many`` equals merging per-array ``classify`` calls,
  and the ``lower_modes``/accelerator columns equal, record by record, the
  per-record reference model they replaced (its outputs on
  :func:`build_mixed_trace` are frozen in ``golden_cost_model.json``);
* an instrumented engine run is *bit-exact* with the naive pre-refactor
  formulation: plain (uninstrumented) dense generation produces the same
  samples, and the recorded per-step ``BitWidthStats`` match a reference
  implementation that unfolds twice, pads with ``np.pad`` and concatenates
  per-batch row differences.
"""

import json
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.core import ExecutionMode, RichTrace, classify
from repro.core.bitwidth import BitWidthStats, classify_many
from repro.core.trace import (
    MODE_ID,
    MODES,
    SPATIAL_ID,
    TEMPORAL_ID,
    Trace,
    TraceRecorder,
)
from repro.hw import build_accelerator
from repro.nn import functional as F
from repro.quant.qlayers import QConv2d

from helpers import make_rich, make_tiny_engine


def build_mixed_trace(num_steps=4):
    trace = RichTrace()
    for step in range(num_steps):
        for name, kwargs in [
            ("conv_a", {}),
            ("attn.qk", {"sub_ops": 2}),
            ("chained", {"chained": True}),
            ("silu_fed", {"producer": "silu"}),
        ]:
            trace.append(
                make_rich(step_index=step, name=name, temporal=step > 0, **kwargs)
            )
    return trace


# -- columnar store <-> dataclass views --------------------------------------

def test_rich_trace_view_round_trip():
    trace = build_mixed_trace()
    rebuilt = RichTrace(steps=list(trace))
    assert list(rebuilt) == list(trace)
    assert rebuilt.layer_names() == trace.layer_names()
    assert rebuilt.total_macs() == trace.total_macs()
    # negative indexing and slices behave like a list of records
    assert trace[-1] == trace.steps[-1]
    assert trace[1:3] == trace.steps[1:3]


def test_rich_trace_pickle_round_trip():
    trace = build_mixed_trace()
    clone = pickle.loads(pickle.dumps(trace))
    assert list(clone) == list(trace)
    # sealed clones must accept further appends
    clone.append(make_rich(step_index=9, name="late"))
    assert len(clone) == len(trace) + 1
    assert clone[-1].layer_name == "late"


def test_lowered_trace_pickle_and_views():
    trace = build_mixed_trace()
    lowered = trace.lower_modes(np.full(len(trace), TEMPORAL_ID, dtype=np.int64))
    clone = pickle.loads(pickle.dumps(lowered))
    assert isinstance(clone, Trace)
    assert len(clone) == len(lowered)
    assert clone.layer_names() == lowered.layer_names()
    for name in Trace._INT_FIELDS + Trace._BOOL_FIELDS:
        np.testing.assert_array_equal(clone.col(name), lowered.col(name))
    assert clone.total_bytes() == lowered.total_bytes()


def test_recorder_appends_through_columnar_store():
    rec = TraceRecorder()
    step = make_rich(step_index=3, name="x")
    with rec:
        rec.record(step)
    assert rec.trace[0] == step


# -- fused classification ----------------------------------------------------

def test_classify_many_equals_merged_classify():
    rng = np.random.default_rng(7)
    arrays = [
        rng.integers(-260, 260, size=size).astype(dtype)
        for size, dtype in [(1, np.int64), (97, np.float64), (1000, np.float32)]
    ]
    merged = BitWidthStats.empty()
    for arr in arrays:
        merged = merged.merge(classify(arr))
    assert classify_many(*arrays) == merged


def test_classify_f32_matches_f64():
    rng = np.random.default_rng(11)
    values = rng.integers(-510, 511, size=4096).astype(np.float64)
    assert classify(values.astype(np.float32)) == classify(values)


# -- column model == frozen per-record reference -----------------------------

# Per-record outputs of the record-at-a-time lowering and hardware models on
# ``build_mixed_trace()``, frozen before those models were retired in favour
# of the column path: 3 modes x 4 bypass styles of lowering, and every stage
# cycle, energy component and byte count of five hardware models.
GOLDEN = json.loads(Path(__file__).with_name("golden_cost_model.json").read_text())

_LOWERING_FIELDS = (
    "st_total", "st_zero", "st_low", "st_high",
    "bytes_in", "bytes_weight", "bytes_out", "bytes_extra", "sub_ops",
)


@pytest.mark.parametrize("bypass", ["chained", "sign_mask", "both", "none"])
@pytest.mark.parametrize(
    "mode", [ExecutionMode.DENSE, ExecutionMode.TEMPORAL, ExecutionMode.SPATIAL]
)
def test_lower_modes_matches_derive_layer_step(mode, bypass):
    trace = build_mixed_trace()
    lowered = trace.lower_modes(
        np.full(len(trace), MODE_ID[mode], dtype=np.int64), bypass
    )
    golden = GOLDEN["lowering"][f"{mode}/{bypass}"]
    assert [str(MODES[m]) for m in lowered.col("mode")] == golden["mode"]
    for name in _LOWERING_FIELDS:
        assert lowered.col(name).tolist() == golden[name], name


@pytest.mark.parametrize("hardware", ["ITC", "Diffy", "Ditto", "Cambricon-D", "GPU"])
def test_vectorized_accelerator_matches_scalar(hardware):
    accel = build_accelerator(hardware)
    rich = build_mixed_trace()
    trace = rich.lower_modes(
        np.where(rich.col("has_temporal"), TEMPORAL_ID, SPATIAL_ID)
    )
    golden = GOLDEN["hardware"][hardware]
    report = accel.run(trace)
    columns = report.columns
    for name, key in [
        ("compute_cycles", "compute"),
        ("memory_cycles", "memory"),
        ("encode_cycles", "encode"),
        ("vpu_cycles", "vpu"),
        ("cycles", "cycles"),
        ("bytes_moved", "bytes_moved"),
    ]:
        assert columns[key].tolist() == golden[name], name
    assert accel.cycles_array(trace).tolist() == golden["cycles"]
    assert set(columns["energy"]) == set(golden["energy_pj"])
    for component, values in golden["energy_pj"].items():
        np.testing.assert_allclose(
            columns["energy"][component], values, rtol=1e-12, atol=0.0
        )
    assert report.total_cycles == pytest.approx(sum(golden["cycles"]), rel=1e-12)


# -- bit-exactness vs the pre-refactor formulation ---------------------------

def _reference_conv_record(layer: QConv2d, q_in, diff):
    """The pre-refactor stats math: second unfold, np.pad, concatenate."""

    def naive_im2col(x, kernel, stride, padding):
        if padding:
            x = np.pad(
                x,
                ((0, 0), (0, 0), (padding, padding), (padding, padding)),
                mode="constant",
            )
        n, c, h, w = x.shape
        out_h = (h - kernel) // stride + 1
        out_w = (w - kernel) // stride + 1
        rows = np.empty((n, out_h * out_w, c * kernel * kernel))
        for b in range(n):
            idx = 0
            for i in range(out_h):
                for j in range(out_w):
                    patch = x[
                        b,
                        :,
                        i * stride : i * stride + kernel,
                        j * stride : j * stride + kernel,
                    ]
                    rows[b, idx] = patch.ravel()
                    idx += 1
        return rows

    def spatial_diff_rows(mat):
        d = mat.copy()
        if mat.shape[0] > 1:
            d[1:] -= mat[:-1]
        return d

    cols = naive_im2col(
        np.asarray(q_in, dtype=np.float64),
        layer.kernel_size,
        layer.stride,
        layer.padding,
    )
    spatial = np.concatenate([spatial_diff_rows(batch) for batch in cols])
    return (
        classify(np.asarray(q_in, dtype=np.float64)),
        classify(spatial),
        None if diff is None else classify(np.asarray(diff, dtype=np.float64)),
    )


# id -> (padding, stride, kernel, (H, W)).  Every stride-1 case runs the
# row-shift spatial stats: padding 0/1/2, the 1x1 no-copy operand, a
# non-square input, and out_w == 1 (no within-row differences at all).
# The stride-2 cases run the transposed im2col: padded and unpadded 3x3,
# DiT's 2x2 patch embed, and a padded 3x3 over an odd, non-square input.
_CONV_STATS_CASES = {
    "1-1": (1, 1, 3, (8, 8)),
    "0-1": (0, 1, 3, (8, 8)),
    "1-2": (1, 2, 3, (8, 8)),
    "0-2": (0, 2, 3, (8, 8)),
    "patch2": (0, 2, 2, (8, 8)),
    "odd-2": (1, 2, 3, (9, 7)),
    "2-1": (2, 1, 3, (8, 8)),
    "1x1": (0, 1, 1, (8, 8)),
    "nonsquare": (1, 1, 3, (5, 9)),
    "outw1": (0, 1, 3, (6, 3)),
}


@pytest.mark.parametrize("case", list(_CONV_STATS_CASES))
def test_conv_stats_match_naive_reference(case):
    padding, stride, kernel, (h, w) = _CONV_STATS_CASES[case]
    rng = np.random.default_rng(5)
    weight = rng.standard_normal((6, 3, kernel, kernel))
    layer = QConv2d(weight, None, stride=stride, padding=padding)
    layer.layer_name = "conv"
    x0 = rng.standard_normal((2, 3, h, w))
    x1 = x0 + 0.05 * rng.standard_normal((2, 3, h, w))
    # TEMPORAL from the first call: it executes dense on empty state, the
    # second call on the difference.
    layer.mode = ExecutionMode.TEMPORAL
    for x in (x0, x1):
        with TraceRecorder() as rec:
            layer(x)
        record = rec.trace[0]
        q_in = layer._prev_q_in
        diff = None
        if record.stats_temporal is not None:
            # reconstruct the integer difference the layer classified
            q_prev = layer.input_quant.quantize(x0)
            diff = np.asarray(q_in, dtype=np.float64) - q_prev
        dense, spatial, temporal = _reference_conv_record(layer, q_in, diff)
        assert record.stats_dense == dense
        assert record.stats_spatial == spatial
        assert record.stats_temporal == temporal


def test_f32_and_f64_conv_paths_identical():
    """The exactness license: f32 == f64 bit-for-bit."""
    rng = np.random.default_rng(9)
    weight = rng.standard_normal((4, 2, 3, 3))
    fast = QConv2d(weight, None, padding=1)
    slow = QConv2d(weight, None, padding=1)
    assert fast._use_f32
    slow._use_f32 = False
    slow.q_weight = slow.q_weight.astype(np.float64)
    slow._cols_dtype = np.dtype(np.float64)
    slow._w_rows = slow._w_rows.astype(np.float64)
    for layer in (fast, slow):
        layer.mode = ExecutionMode.TEMPORAL
        layer.input_quant.scale = 0.05
    for step in range(3):
        x = rng.standard_normal((1, 2, 6, 6))
        with TraceRecorder() as rec_fast:
            out_fast = fast(x)
        with TraceRecorder() as rec_slow:
            out_slow = slow(x)
        np.testing.assert_array_equal(out_fast, out_slow)
        assert rec_fast.trace[0] == rec_slow.trace[0]
        # Step 0 finds no state and runs dense; later steps difference.
        assert (rec_fast.trace[0].stats_temporal is None) is (step == 0)


def test_f32_gate_covers_difference_range():
    """The exactness gate must bound *difference* operands (2^bits - 1 wide).

    A 64-channel 3x3 conv (dot_len 576) passes the naive dense-operand bound
    (576 * 2^14 < 2^24) but a temporal-difference dot product can reach
    576 * 255 * 128 > 2^24, where float32 accumulation rounds.  At stride 1
    the conv runs one GEMM per row-shift slice of 64 * 3 = 192 terms, inside
    the bound: the slices run in float32 and their partial sums add in
    float64.  A single GEMM of 576 terms (stride 2) stays on the float64
    path.
    """
    rng = np.random.default_rng(2)
    wide = QConv2d(rng.standard_normal((4, 64, 3, 3)), None, padding=1)
    assert wide._use_f32 and wide._sum_f64  # slices of 192 <= 514 < 576
    assert wide.q_weight.dtype == wide._w_rows.dtype == np.float32
    q_in = wide.input_quant.quantize(
        rng.standard_normal((1, 64, 5, 5)), out_dtype=np.dtype(np.float32)
    )
    cols, out_hw = wide._unfold(q_in)
    assert cols.dtype == np.float32
    assert wide._conv(cols, out_hw).dtype == np.float64  # f64 partial sums
    strided = QConv2d(rng.standard_normal((4, 64, 3, 3)), None, stride=2, padding=1)
    assert not strided._use_f32  # one GEMM over all 576 terms
    narrow = QConv2d(rng.standard_normal((4, 32, 3, 3)), None, padding=1)
    assert narrow._use_f32 and not narrow._sum_f64  # dot_len 288 <= 514
    # The reviewer's counterexample, end to end: saturated differences whose
    # exact dot product is odd and above 2^24 must survive bit-exactly.
    from repro.quant.qlayers import QLinear

    lin = QLinear(np.ones((1, 1000)), None)
    assert not lin._use_f32
    lin.input_quant.scale = 1.0
    lin.mode = ExecutionMode.TEMPORAL
    lin(np.full((1, 1000), -128.0))  # no state yet: executes dense
    with TraceRecorder() as rec:
        out = lin(np.concatenate([[[127.0]], np.full((1, 999), 127.0)], axis=1))
    assert rec.trace[0].stats_temporal is not None  # executed temporal
    # weights quantize to 127 with scale 1/127; the dequantized output is
    # exactly 1000 * 127 * 127 / 127 - any f32 rounding in the temporal
    # reconstruction (int dot 16_129_000 > 2^24) would show here.
    assert float(out.ravel()[0]) == 1000 * 127


def test_f32_gate_edge_is_exact_worst_case_product():
    """The gate is ``dot_len * 255 * 128 < 2^24``: 514 terms take float32,
    515 do not (the naive ``2^15`` per-term bound would stop at 511)."""
    from repro.quant.qlayers import QLinear

    assert 514 * 255 * 128 < 2**24 < 515 * 255 * 128
    assert QLinear(np.ones((2, 514)), None)._use_f32
    assert not QLinear(np.ones((2, 515)), None)._use_f32


def test_f32_gate_edge_saturated_temporal_step_exact():
    """At the 514-term edge, a saturated temporal step runs bit-identical
    to a forced-float64 twin: every difference is 127 - (-128) = 255 and
    one weight is the -128 end of the grid."""
    from repro.quant.qlayers import QLinear

    fast = QLinear(np.ones((1, 514)), None)
    slow = QLinear(np.ones((1, 514)), None)
    assert fast._use_f32 and fast.q_weight.dtype == np.float32
    slow._use_f32 = False
    slow.q_weight = slow.q_weight.astype(np.float64)
    for layer in (fast, slow):
        layer.q_weight[0, 0] = -128.0
        layer.input_quant.scale = 1.0
    outs = []
    for layer in (fast, slow):
        layer.mode = ExecutionMode.TEMPORAL
        layer(np.full((1, 514), -128.0))  # no state yet: executes dense
        with TraceRecorder() as rec:
            outs.append(layer(np.full((1, 514), 127.0)))
        assert rec.trace[0].stats_temporal is not None  # executed temporal
    np.testing.assert_array_equal(outs[0], outs[1])
    # The temporal dot product 255 * (513 * 127 - 128) is odd and within
    # 2^24; the integer accumulator holds (-128 + 255) times the weight sum.
    assert fast._prev_out_int.ravel()[0] == 127 * (513 * 127 - 128)


def test_f32_gate_per_slice_saturated_temporal_step_exact():
    """The 576-term conv's saturated temporal step runs bit-identical to a
    forced-float64 twin.  Every difference is 127 - (-128) = 255 and the
    weights are 127 but one 126, so the temporal dot product
    255 * (575 * 127 + 126) = 18,653,505 is odd and above 2^24.  Each
    float32 row-shift slice (192 terms) stays exact; a float32 sum of the
    three would round the odd total to even, the float64 sum does not."""
    weight = np.ones((1, 64, 3, 3))
    weight[0, 0, 0, 0] = 126.0 / 127.0
    fast = QConv2d(weight, None)
    slow = QConv2d(weight, None)
    assert fast._use_f32 and fast._sum_f64
    assert fast.q_weight[0, 0, 0, 0] == 126 and np.sum(fast.q_weight == 127) == 575
    slow._use_f32 = False
    slow._cols_dtype = np.dtype(np.float64)
    slow.q_weight = slow.q_weight.astype(np.float64)
    slow._w_rows = slow._w_rows.astype(np.float64)
    outs = []
    for layer in (fast, slow):
        layer.input_quant.scale = 1.0
        layer.mode = ExecutionMode.TEMPORAL
        layer(np.full((1, 64, 3, 3), -128.0))  # no state yet: executes dense
        with TraceRecorder() as rec:
            outs.append(layer(np.full((1, 64, 3, 3), 127.0)))
        assert rec.trace[0].stats_temporal is not None  # executed temporal
    np.testing.assert_array_equal(outs[0], outs[1])
    weight_sum = 575 * 127 + 126
    assert 255 * weight_sum > 2**24 and (255 * weight_sum) % 2 == 1
    # The integer accumulator holds (-128 + 255) times the weight sum.
    assert fast._prev_out_int.ravel()[0] == 127 * weight_sum


def test_pad_workspace_not_shared_across_padding_widths():
    """Two paddings with coinciding padded shapes must not share borders."""
    rng = np.random.default_rng(4)
    a = rng.standard_normal((1, 2, 32, 32))  # padded shape (1,2,34,34), p=1
    b = rng.standard_normal((1, 2, 30, 30))  # padded shape (1,2,34,34), p=2
    F.im2col(a, 3, 1, 1)  # dirty the p=1 workspace interior
    cols, _ = F.im2col(b, 3, 1, 2)
    ref = np.pad(b, ((0, 0), (0, 0), (2, 2), (2, 2)), mode="constant")
    ref_cols, _ = F.im2col(ref, 3, 1, 0)
    np.testing.assert_array_equal(cols, ref_cols)


def test_instrumented_run_matches_plain_generation():
    """Recording + single-pass sharing must not perturb the samples."""
    engine = make_tiny_engine(num_steps=4)
    result = engine.run(seed=123)
    # Plain dense generation with no recorder and no temporal processing:
    # the Ditto algorithm is bit-exact, so samples must be identical.
    from repro.quant.qlayers import reset_model_state, set_model_mode

    reset_model_state(engine.qmodel)
    set_model_mode(engine.qmodel, ExecutionMode.DENSE)
    plain = engine.pipeline.generate(1, np.random.default_rng(123))
    np.testing.assert_array_equal(result.samples, plain)
