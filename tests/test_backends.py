"""Compute-kernel tests.

Covers the dispatch contract end to end:

* the blocked ``im2col_t`` stride-2 path matches a naive patch gather bit
  for bit, in the ``(N, C*k*k, positions)`` layout, C-contiguous, through
  the ``out=`` buffer-reuse gate;
* the stride-1 row-shift unfold (``unfold_rows``) plus its k-slice GEMM is
  bit-identical to ``im2col_t`` + ``conv2d_from_cols_t``, including across
  reuse of its pooled buffers;
* integer-valued GEMMs and quantized layer outputs equal exact int64
  ``einsum`` results (the exact-f32 gate's promise);
* the names the benchmark harness reads - ``registered_backends``,
  ``get_backend``, the entry points its tracer wraps, the engine's backend
  attributes and ``plan_key(backend=...)`` - stay put, and a stale
  ``REPRO_BACKEND`` in the environment moves no cache key.
"""

import numpy as np
import pytest

from repro.core import DittoEngine, ExecutionMode
from repro.nn import backends, functional as F
from repro.nn.backends import ComputeBackend
from repro.quant.qlayers import QConv2d, QLinear
from repro.runtime.hashing import (
    engine_build_key,
    engine_key,
    plan_key,
    spec_signature,
)

from helpers import make_tiny_spec


def naive_cols_t(x, kernel, stride, padding):
    """Patch gather by explicit loops, transposed to the im2col_t layout."""
    if padding:
        x = np.pad(
            x,
            ((0, 0), (0, 0), (padding, padding), (padding, padding)),
            mode="constant",
        )
    n, c, h, w = x.shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    cols = np.empty((n, c * kernel * kernel, out_h * out_w), dtype=x.dtype)
    for b in range(n):
        pos = 0
        for i in range(out_h):
            for j in range(out_w):
                patch = x[
                    b,
                    :,
                    i * stride : i * stride + kernel,
                    j * stride : j * stride + kernel,
                ]
                cols[b, :, pos] = patch.ravel()
                pos += 1
    return cols, (out_h, out_w)


# -- blocked stride-2 im2col_t ----------------------------------------------

@pytest.mark.parametrize("kernel,padding", [(3, 0), (3, 1), (1, 0)])
@pytest.mark.parametrize("stride", [1, 2])
def test_im2col_t_matches_naive_gather(kernel, padding, stride):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 3, 9, 9)).astype(np.float32)
    got, out_hw = F.im2col_t(x, kernel, stride, padding)
    ref, ref_hw = naive_cols_t(x, kernel, stride, padding)
    assert out_hw == ref_hw
    assert got.shape == ref.shape
    assert got.flags["C_CONTIGUOUS"]
    np.testing.assert_array_equal(got, ref)


def test_im2col_t_stride2_equals_stride1_on_decimated_positions():
    """Stride 2 selects exactly the even-position columns of stride 1."""
    rng = np.random.default_rng(4)
    x = rng.standard_normal((1, 2, 8, 8))
    s1, (h1, w1) = F.im2col_t(x, 3, 1, 1)
    s2, (h2, w2) = F.im2col_t(x, 3, 2, 1)
    grid = s1.reshape(1, -1, h1, w1)[:, :, ::2, ::2]
    np.testing.assert_array_equal(s2, grid.reshape(1, -1, h2 * w2))


def test_im2col_t_stride2_out_buffer_gate():
    """``out=`` reuse must fill the caller's buffer on the blocked path."""
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 3, 9, 9))
    ref, (out_h, out_w) = naive_cols_t(x, 3, 2, 1)
    buf = np.full((2, 27, out_h * out_w), np.nan)
    got, _ = F.im2col_t(x, 3, 2, 1, out=buf)
    assert got is buf
    np.testing.assert_array_equal(buf, ref)
    # A mismatched buffer is a caller bug (stale per-layer buffer after a
    # shape change) and must raise rather than silently fall back.
    wrong = np.empty((2, 27, out_h * out_w + 1))
    with pytest.raises(ValueError, match="out buffer"):
        F.im2col_t(x, 3, 2, 1, out=wrong)


# -- stride-1 row-shift unfold ----------------------------------------------

def naive_rows(x, kernel, padding):
    """The unfold_rows layout built by explicit loops, zero past the image."""
    n, c, h, w = x.shape
    padded = np.pad(
        x, ((0, 0), (0, 0), (padding, padding), (padding, padding)), mode="constant"
    )
    length = padded.shape[2] * padded.shape[3]
    flat = np.zeros((n, c, length + kernel - 1), dtype=x.dtype)
    flat[:, :, :length] = padded.reshape(n, c, length)
    rows = np.empty((n, c * kernel, length), dtype=x.dtype)
    for ch in range(c):
        for kj in range(kernel):
            rows[:, ch * kernel + kj] = flat[:, ch, kj : kj + length]
    return rows


def _row_shift_conv(bk, rows, weight, out_hw):
    """The k-slice GEMM QConv2d runs over a row-shift unfold."""
    out_c, _, kernel, _ = weight.shape
    out_h, out_w = out_hw
    wp = out_w + kernel - 1
    span = out_h * wp
    w_rows = np.ascontiguousarray(
        weight.transpose(2, 0, 1, 3).reshape(kernel, out_c, -1)
    )
    conv = bk.matmul(w_rows[0], rows[:, :, :span])
    for ki in range(1, kernel):
        conv += bk.matmul(w_rows[ki], rows[:, :, ki * wp : ki * wp + span])
    return conv.reshape(rows.shape[0], out_c, out_h, wp)[..., :out_w]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("kernel", [1, 3])
def test_unfold_rows_conv_bit_identical_to_im2col(kernel, padding, batch, dtype):
    """Row-shift unfold + k-slice GEMM == im2col_t + conv2d_from_cols_t.

    Integer operands at the exact-f32 gate's extremes (differences up to
    255 against 8-bit weights), a non-square input, and two calls through
    the same ``out`` buffer and pooled pad workspace.  Before the first
    call the ``pad{p}`` workspace of an input one row taller - the shape a
    spare-row pad buffer would share a key with - is filled with nonzero
    data, so a tail or border read from that key would surface here.
    """
    bk = backends.active()
    rng = np.random.default_rng(11)
    c, h, w = 4, 5, 9
    weight = rng.integers(-127, 128, size=(6, c, kernel, kernel)).astype(dtype)
    flat_w = weight.reshape(6, -1)
    taller = rng.integers(1, 200, size=(batch, c, h + 1, w)).astype(dtype)
    bk.im2col_t(taller, 3, 1, padding)
    length = (h + 2 * padding) * (w + 2 * padding)
    out = np.full((batch, c * kernel, length), np.nan, dtype=dtype)
    for _ in range(2):
        x = rng.integers(-255, 256, size=(batch, c, h, w)).astype(dtype)
        rows, out_hw = bk.unfold_rows(x, kernel, padding, out=out)
        assert rows is out and rows.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(rows, naive_rows(x, kernel, padding))
        cols, ref_hw = bk.im2col_t(x, kernel, 1, padding)
        assert out_hw == ref_hw
        got = _row_shift_conv(bk, rows, weight, out_hw)
        ref = bk.conv2d_from_cols_t(cols, flat_w, ref_hw)
        assert got.dtype == ref.dtype == dtype
        np.testing.assert_array_equal(got, ref)
    with pytest.raises(ValueError, match="out buffer"):
        bk.unfold_rows(x, kernel, padding, out=out[:, :, 1:])


# -- exactness against int64 -------------------------------------------------

def _int_valued(rng, shape, lo=-8, hi=8, dtype=np.float32):
    return rng.integers(lo, hi, size=shape).astype(dtype)


def _i64(a):
    return np.asarray(a).astype(np.int64)


def test_integer_gemms_match_int64_einsum():
    rng = np.random.default_rng(7)
    bk = backends.active()
    # conv GEMM: (out_c, dot) @ (N, dot, P)
    cols_t = _int_valued(rng, (3, 18, 25))
    weight = _int_valued(rng, (4, 18))
    out = bk.conv2d_from_cols_t(cols_t, weight, (5, 5))
    assert out.shape == (3, 4, 5, 5) and out.flags["C_CONTIGUOUS"]
    exact = np.einsum("od,ndp->nop", _i64(weight), _i64(cols_t))
    np.testing.assert_array_equal(out, exact.reshape(3, 4, 5, 5))
    # linear over stacked leading axes
    x = _int_valued(rng, (2, 6, 10))
    w = _int_valued(rng, (4, 10))
    np.testing.assert_array_equal(
        bk.linear(x, w), np.einsum("...d,od->...o", _i64(x), _i64(w))
    )
    # the attention activation x activation product
    a = _int_valued(rng, (2, 2, 5, 6))
    b = _int_valued(rng, (2, 2, 6, 5))
    np.testing.assert_array_equal(
        bk.matmul(a, b), np.einsum("...ik,...kj->...ij", _i64(a), _i64(b))
    )


def test_qlayer_outputs_match_int64_einsum():
    """TEMPORAL quantized layers over two steps - the first executes dense
    on empty state, the second on the difference: the integer accumulator
    equals the int64 product of the step's quantized input, and the output
    is its exact dequantization."""
    rng = np.random.default_rng(9)
    conv = QConv2d(rng.standard_normal((4, 2, 3, 3)), None, padding=1)
    lin = QLinear(rng.standard_normal((5, 12)), None)
    conv.mode = lin.mode = ExecutionMode.TEMPORAL
    x0 = rng.standard_normal((2, 2, 6, 6))
    v0 = rng.standard_normal((2, 12))
    steps = [
        (x0, v0),
        (x0 + 0.05 * rng.standard_normal(x0.shape),
         v0 + 0.05 * rng.standard_normal(v0.shape)),
    ]
    for xc, xl in steps:
        out_conv, out_lin = conv(xc), lin(xl)
        cols, out_hw = naive_cols_t(_i64(conv._prev_q_in), 3, 1, 1)
        exact_conv = np.einsum(
            "od,ndp->nop", _i64(conv.q_weight).reshape(4, -1), cols
        ).reshape(2, 4, *out_hw)
        exact_lin = np.einsum("nd,od->no", _i64(lin._prev_q_in), _i64(lin.q_weight))
        np.testing.assert_array_equal(conv._prev_out_int, exact_conv)
        np.testing.assert_array_equal(lin._prev_out_int, exact_lin)
        np.testing.assert_array_equal(
            out_conv, exact_conv * (conv.input_quant.scale * conv.weight_scale)
        )
        np.testing.assert_array_equal(
            out_lin, exact_lin * (lin.input_quant.scale * lin.weight_scale)
        )


# -- the surface the benchmark harness reads ---------------------------------

def test_single_backend_registry():
    assert backends.registered_backends() == ("reference",)
    assert backends.get_backend("reference") is backends.active()
    assert isinstance(backends.active(), ComputeBackend)
    with pytest.raises(ValueError, match="unknown compute backend"):
        backends.get_backend("blas-batched")


def test_tracer_entry_points_live_on_compute_backend():
    entries = ("im2col_t", "unfold_rows", "conv2d_from_cols_t", "linear", "matmul", "conv2d")
    assert all(name in ComputeBackend.__dict__ for name in entries)


def test_engine_backend_attributes_are_plain_class_attributes():
    assert DittoEngine.__dict__["backend"] == "reference"
    assert DittoEngine.__dict__["effective_backend"] == "reference"
    assert DittoEngine.__dict__["backend_fallback_reason"] is None


def test_plan_key_accepts_only_reference():
    spec = make_tiny_spec("tinyPlanKey", num_steps=2)
    assert plan_key(spec, backend="reference") == plan_key(spec)
    with pytest.raises(ValueError, match="unknown compute backend"):
        plan_key(spec, backend="blas-batched")


def test_stale_backend_env_moves_no_key(monkeypatch):
    spec = make_tiny_spec("tinyEnv", num_steps=2)

    def keys():
        return (
            spec_signature(spec),
            engine_key(spec),
            engine_build_key(spec),
            plan_key(spec),
        )

    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    clean = keys()
    assert "backend" not in clean[0]
    monkeypatch.setenv("REPRO_BACKEND", "blas-batched")
    assert keys() == clean
