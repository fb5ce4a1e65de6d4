"""PR 10 compute-backend tests.

Covers the dispatch contract end to end:

* the blocked ``im2col_t`` stride-2 path matches a naive patch gather bit
  for bit, in the reference ``(N, C*k*k, positions)`` layout, C-contiguous,
  through the ``out=`` buffer-reuse gate;
* the stride-1 row-shift unfold (``unfold_rows``) plus its k-slice GEMM is
  bit-identical to ``im2col_t`` + ``conv2d_from_cols_t`` on every backend,
  including across reuse of its pooled buffers;
* integer-valued GEMMs are *bit-identical* across backends (the exact-f32
  license: any accumulation order yields the same bits under the gate);
* unavailable/unknown backends degrade to ``reference`` with a recorded
  reason, while the cache keys keep the requested name - no aliasing across
  backends, pinned for ``engine_key`` / ``engine_build_key`` / ``plan_key``
  and the spec signature (including the ``REPRO_BACKEND`` env axis);
* ``estimate_row_footprint`` counts backend-private scratch.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import ExecutionMode
from repro.defaults import resolve_backend
from repro.nn import backends, functional as F
from repro.nn.backends import ReferenceBackend, register_backend
from repro.quant.qlayers import QConv2d, QLinear
from repro.runtime.hashing import (
    engine_build_key,
    engine_key,
    plan_key,
    spec_signature,
)
from repro.runtime.serving import estimate_row_footprint

from helpers import make_tiny_engine, make_tiny_spec

BACKENDS = list(backends.available_backends())


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


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("kernel", [1, 3])
def test_unfold_rows_conv_bit_identical_to_im2col(kernel, padding, batch, dtype, backend):
    """Row-shift unfold + k-slice GEMM == im2col_t + conv2d_from_cols_t.

    Integer operands at the exact-f32 gate's extremes (differences up to
    255 against 8-bit weights), a non-square input, and two calls through
    the same ``out`` buffer and pooled pad workspace.  Before the first
    call the ``pad{p}`` workspace of an input one row taller - the shape a
    spare-row pad buffer would share a key with - is filled with nonzero
    data, so a tail or border read from that key would surface here.
    """
    bk = backends.get_backend(backend)
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


# -- cross-backend integer bit-equality --------------------------------------

def _int_valued(rng, shape, lo=-8, hi=8, dtype=np.float32):
    return rng.integers(lo, hi, size=shape).astype(dtype)


@pytest.mark.parametrize("backend", BACKENDS)
def test_integer_gemms_bit_identical_to_reference(backend):
    rng = np.random.default_rng(7)
    ref = backends.get_backend("reference")
    bk = backends.get_backend(backend)
    # conv GEMM: (out_c, dot) @ (N, dot, P)
    cols_t = _int_valued(rng, (3, 18, 25))
    weight = _int_valued(rng, (4, 18))
    np.testing.assert_array_equal(
        bk.conv2d_from_cols_t(cols_t, weight, (5, 5)),
        ref.conv2d_from_cols_t(cols_t, weight, (5, 5)),
    )
    out = bk.conv2d_from_cols_t(cols_t, weight, (5, 5))
    assert out.shape == (3, 4, 5, 5) and out.flags["C_CONTIGUOUS"]
    # linear over stacked leading axes
    x = _int_valued(rng, (2, 6, 10))
    w = _int_valued(rng, (4, 10))
    np.testing.assert_array_equal(bk.linear(x, w), ref.linear(x, w))
    # the attention activation x activation product
    a = _int_valued(rng, (2, 2, 5, 6))
    b = _int_valued(rng, (2, 2, 6, 5))
    np.testing.assert_array_equal(bk.matmul(a, b), ref.matmul(a, b))


def test_blas_gather_path_handles_noncontiguous_cols():
    """n > 1 non-contiguous cols_t must route through the gather, bit-exact."""
    rng = np.random.default_rng(8)
    base = _int_valued(rng, (3, 25, 18))
    cols_t = base.transpose(0, 2, 1)  # (3, 18, 25), not C-contiguous
    assert not cols_t.flags["C_CONTIGUOUS"]
    weight = _int_valued(rng, (4, 18))
    ref = backends.get_backend("reference")
    blas = backends.get_backend("blas-batched")
    np.testing.assert_array_equal(
        blas.conv2d_from_cols_t(cols_t, weight, (5, 5)),
        ref.conv2d_from_cols_t(np.ascontiguousarray(cols_t), weight, (5, 5)),
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_qlayer_outputs_bit_identical_across_backends(backend):
    """Dense + temporal quantized layers stay exact under every backend."""
    rng = np.random.default_rng(9)
    w_conv = rng.standard_normal((4, 2, 3, 3))
    w_lin = rng.standard_normal((5, 12))
    x0 = rng.standard_normal((2, 2, 6, 6))
    x1 = x0 + 0.05 * rng.standard_normal(x0.shape)
    v0 = rng.standard_normal((2, 12))
    v1 = v0 + 0.05 * rng.standard_normal(v0.shape)

    def run(name):
        conv = QConv2d(w_conv, None, padding=1)
        lin = QLinear(w_lin, None)
        outs = []
        with backends.use_backend(name):
            for mode, (xc, xl) in [
                (ExecutionMode.DENSE, (x0, v0)),
                (ExecutionMode.TEMPORAL, (x1, v1)),
            ]:
                conv.mode = lin.mode = mode
                outs.append((conv(xc), lin(xl)))
        return outs

    for (conv_ref, lin_ref), (conv_bk, lin_bk) in zip(run("reference"), run(backend)):
        np.testing.assert_array_equal(conv_bk, conv_ref)
        np.testing.assert_array_equal(lin_bk, lin_ref)


# -- probe fallback -----------------------------------------------------------

class _BrokenBackend(ReferenceBackend):
    name = "test-broken"

    @classmethod
    def probe(cls):
        return False, "simulated hardware missing"


def test_unavailable_backend_degrades_with_reason():
    register_backend("test-broken", _BrokenBackend)
    effective, reason = backends.probe_backend("test-broken")
    assert effective == "reference"
    assert "simulated hardware missing" in reason
    assert "test-broken" not in backends.available_backends()
    assert isinstance(backends.get_backend("test-broken"), ReferenceBackend)


def test_unknown_backend_degrades_with_reason():
    effective, reason = backends.probe_backend("no-such-backend")
    assert effective == "reference"
    assert "unknown" in reason


def test_engine_keeps_requested_name_on_fallback():
    register_backend("test-broken", _BrokenBackend)
    engine = make_tiny_engine(num_steps=2, backend="test-broken")
    assert engine.backend == "test-broken"  # the cache-key axis
    assert engine.effective_backend == "reference"
    assert "simulated hardware missing" in engine.backend_fallback_reason
    native = make_tiny_engine(num_steps=2)
    assert native.backend_fallback_reason is None


def test_use_backend_is_scoped():
    before = backends.active()
    with backends.use_backend("blas-batched") as bk:
        assert backends.active() is bk
        assert bk.name == "blas-batched"
    assert backends.active() is before


# -- the cache-key axis -------------------------------------------------------

def test_backend_is_a_cache_key_axis():
    spec = make_tiny_spec("tinyKeys", num_steps=2)
    for key_fn in (engine_key, engine_build_key, plan_key):
        ref = key_fn(spec)
        blas = key_fn(spec, backend="blas-batched")
        assert ref != blas
        # Explicitly requesting the default matches the implicit default.
        assert key_fn(spec, backend="reference") == ref
    # A degraded backend still keys under its *requested* name: requesting a
    # registered-but-unavailable backend never aliases a reference entry.
    register_backend("test-broken", _BrokenBackend)
    assert engine_key(spec, backend="test-broken") != engine_key(spec)


def test_spec_pin_and_env_reach_the_signature(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    spec = make_tiny_spec("tinySig", num_steps=2)
    assert spec_signature(spec)["backend"] == "reference"
    pinned = dataclasses.replace(spec, backend="blas-batched")
    assert spec_signature(pinned)["backend"] == "blas-batched"
    monkeypatch.setenv("REPRO_BACKEND", "blas-batched")
    assert resolve_backend(None, None) == "blas-batched"
    assert spec_signature(spec)["backend"] == "blas-batched"
    # spec pin beats env; explicit override beats both.
    repinned = dataclasses.replace(spec, backend="reference")
    assert spec_signature(repinned)["backend"] == "reference"
    assert resolve_backend(repinned, "blas-batched") == "blas-batched"


# -- footprint accounting -----------------------------------------------------

class _ScratchHeavyBackend(ReferenceBackend):
    name = "test-scratch"

    def scratch_nbytes(self):
        return 2 * 2**20


def test_row_footprint_counts_backend_scratch():
    register_backend("test-scratch", _ScratchHeavyBackend)
    plain = estimate_row_footprint(make_tiny_engine(num_steps=2))
    heavy = estimate_row_footprint(
        make_tiny_engine(num_steps=2, backend="test-scratch")
    )
    # Same kernels, same pool traffic: the only delta is the backend-private
    # scratch, amortized over the 2 probed rows.
    assert heavy == plain + 2**20
