"""Unit + property tests for the numpy kernels in repro.nn.functional."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import functional as F


def naive_conv2d(x, w, bias=None, stride=1, padding=0):
    """Reference convolution via explicit loops."""
    n, c, h, wd = x.shape
    oc, ic, k, _ = w.shape
    assert c == ic
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (x.shape[2] - k) // stride + 1
    ow = (x.shape[3] - k) // stride + 1
    out = np.zeros((n, oc, oh, ow))
    for b in range(n):
        for o in range(oc):
            for i in range(oh):
                for j in range(ow):
                    patch = x[b, :, i * stride : i * stride + k, j * stride : j * stride + k]
                    out[b, o, i, j] = np.sum(patch * w[o])
    if bias is not None:
        out += bias.reshape(1, -1, 1, 1)
    return out


def test_silu_matches_definition(rng):
    x = rng.normal(size=100)
    np.testing.assert_allclose(F.silu(x), x / (1 + np.exp(-x)), rtol=1e-12)


def test_silu_stable_for_large_values():
    out = F.silu(np.array([-1000.0, 1000.0]))
    assert np.isfinite(out).all()
    np.testing.assert_allclose(out, [0.0, 1000.0], atol=1e-6)


def test_gelu_reference_points():
    np.testing.assert_allclose(F.gelu(np.array([0.0])), [0.0], atol=1e-12)
    assert F.gelu(np.array([3.0]))[0] == pytest.approx(2.9964, abs=1e-3)
    assert F.gelu(np.array([-3.0]))[0] == pytest.approx(-0.0036, abs=1e-3)


def test_softmax_normalizes(rng):
    x = rng.normal(size=(3, 7))
    p = F.softmax(x)
    np.testing.assert_allclose(p.sum(axis=-1), np.ones(3), rtol=1e-12)
    assert (p > 0).all()


def test_softmax_shift_invariance(rng):
    x = rng.normal(size=(2, 5))
    np.testing.assert_allclose(F.softmax(x), F.softmax(x + 100.0), rtol=1e-9)


def test_group_norm_zero_mean_unit_var(rng):
    x = rng.normal(2.0, 3.0, size=(2, 8, 4, 4))
    out = F.group_norm(x, num_groups=4)
    grouped = out.reshape(2, 4, 2, 4, 4)
    np.testing.assert_allclose(grouped.mean(axis=(2, 3, 4)), 0.0, atol=1e-10)
    np.testing.assert_allclose(grouped.var(axis=(2, 3, 4)), 1.0, rtol=1e-3)


def test_group_norm_affine(rng):
    x = rng.normal(size=(1, 4, 2, 2))
    w = np.full(4, 2.0)
    b = np.full(4, -1.0)
    plain = F.group_norm(x, 2)
    scaled = F.group_norm(x, 2, w, b)
    np.testing.assert_allclose(scaled, plain * 2.0 - 1.0, rtol=1e-12)


def test_group_norm_rejects_bad_groups():
    with pytest.raises(ValueError):
        F.group_norm(np.zeros((1, 6, 2, 2)), num_groups=4)


def test_layer_norm_normalizes_last_axis(rng):
    x = rng.normal(1.0, 5.0, size=(3, 4, 16))
    out = F.layer_norm(x)
    np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-10)
    np.testing.assert_allclose(out.var(axis=-1), 1.0, rtol=1e-3)


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
def test_conv2d_matches_naive(rng, stride, padding):
    x = rng.normal(size=(2, 3, 6, 6))
    w = rng.normal(size=(4, 3, 3, 3))
    b = rng.normal(size=4)
    got = F.conv2d(x, w, b, stride=stride, padding=padding)
    want = naive_conv2d(x, w, b, stride=stride, padding=padding)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)


def test_conv2d_1x1_is_channel_mix(rng):
    x = rng.normal(size=(1, 3, 4, 4))
    w = rng.normal(size=(5, 3, 1, 1))
    got = F.conv2d(x, w)
    want = np.einsum("oc,nchw->nohw", w[:, :, 0, 0], x)
    np.testing.assert_allclose(got, want, rtol=1e-10)


def test_im2col_row_order_is_output_raster(rng):
    x = rng.normal(size=(1, 2, 4, 4))
    cols, (oh, ow) = F.im2col(x, kernel=3, stride=1, padding=0)
    assert (oh, ow) == (2, 2)
    assert cols.shape == (1, 4, 18)
    # Row 0 must be the top-left window, channel-major.
    window = x[0, :, 0:3, 0:3].reshape(-1)
    np.testing.assert_allclose(cols[0, 0], window)


def test_im2col_integer_exactness():
    x = np.arange(32, dtype=np.float64).reshape(1, 2, 4, 4)
    cols, _ = F.im2col(x, 2)
    assert np.array_equal(cols, np.rint(cols))


def test_linear_matches_matmul(rng):
    x = rng.normal(size=(5, 7))
    w = rng.normal(size=(3, 7))
    b = rng.normal(size=3)
    np.testing.assert_allclose(F.linear(x, w, b), x @ w.T + b, rtol=1e-12)


def test_avg_pool2d(rng):
    x = rng.normal(size=(1, 2, 4, 4))
    out = F.avg_pool2d(x, 2)
    assert out.shape == (1, 2, 2, 2)
    np.testing.assert_allclose(out[0, 0, 0, 0], x[0, 0, :2, :2].mean())


def test_avg_pool2d_rejects_indivisible():
    with pytest.raises(ValueError):
        F.avg_pool2d(np.zeros((1, 1, 5, 4)), 2)


def test_upsample_nearest(rng):
    x = rng.normal(size=(1, 1, 2, 2))
    up = F.upsample_nearest(x, 2)
    assert up.shape == (1, 1, 4, 4)
    np.testing.assert_allclose(up[0, 0, :2, :2], np.full((2, 2), x[0, 0, 0, 0]))


def test_sinusoidal_embedding_shape_and_range():
    emb = F.sinusoidal_embedding(np.array([0, 10, 500]), 16)
    assert emb.shape == (3, 16)
    assert np.abs(emb).max() <= 1.0 + 1e-12


def test_sinusoidal_embedding_odd_dim():
    emb = F.sinusoidal_embedding(np.array([3]), 7)
    assert emb.shape == (1, 7)


def test_sinusoidal_embedding_distinguishes_timesteps():
    emb = F.sinusoidal_embedding(np.array([1, 2]), 32)
    assert not np.allclose(emb[0], emb[1])


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 3),
    c=st.integers(1, 4),
    hw=st.integers(3, 8),
    k=st.sampled_from([1, 3]),
    seed=st.integers(0, 100),
)
def test_conv2d_property_matches_naive(n, c, hw, k, seed):
    rng = np.random.default_rng(seed)
    x = rng.integers(-8, 8, size=(n, c, hw, hw)).astype(np.float64)
    w = rng.integers(-8, 8, size=(2, c, k, k)).astype(np.float64)
    got = F.conv2d(x, w, padding=k // 2)
    want = naive_conv2d(x, w, padding=k // 2)
    np.testing.assert_array_equal(got, want)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 1000))
def test_conv_linearity_property(seed):
    """conv(a) + conv(b) == conv(a + b): the distributive property Ditto uses."""
    rng = np.random.default_rng(seed)
    a = rng.integers(-100, 100, size=(1, 2, 5, 5)).astype(np.float64)
    b = rng.integers(-100, 100, size=(1, 2, 5, 5)).astype(np.float64)
    w = rng.integers(-100, 100, size=(3, 2, 3, 3)).astype(np.float64)
    lhs = F.conv2d(a, w, padding=1) + F.conv2d(b, w, padding=1)
    rhs = F.conv2d(a + b, w, padding=1)
    np.testing.assert_array_equal(lhs, rhs)


# -- blocked transposed im2col (PR 5) ----------------------------------------

@pytest.mark.parametrize(
    "kernel,stride,padding",
    [(3, 1, 1), (3, 1, 0), (1, 1, 0), (3, 2, 1), (2, 2, 0)],
)
def test_im2col_t_is_transposed_im2col(rng, kernel, stride, padding):
    """Column values are identical to im2col - only the layout transposes."""
    x = rng.normal(size=(2, 3, 9, 9))
    cols, hw = F.im2col(x.copy(), kernel, stride, padding)
    cols_t, hw_t = F.im2col_t(x.copy(), kernel, stride, padding)
    assert hw == hw_t
    np.testing.assert_array_equal(cols.transpose(0, 2, 1), cols_t)


def test_im2col_t_out_buffer_and_cast(rng):
    """A float32 out buffer receives the (exact-integer) patches in place."""
    x = rng.integers(-8, 8, size=(1, 2, 6, 6)).astype(np.float64)
    out = np.empty((1, 2 * 9, 36), dtype=np.float32)
    cols_t, _ = F.im2col_t(x, 3, 1, 1, out=out)
    assert cols_t is out
    ref, _ = F.im2col(x, 3, 1, 1)
    np.testing.assert_array_equal(ref.transpose(0, 2, 1), cols_t.astype(np.float64))


def test_im2col_t_pad_workspace_not_shared_across_padding_widths():
    """Two paddings with coinciding padded shapes must not share borders."""
    rng = np.random.default_rng(9)
    a = rng.standard_normal((1, 2, 32, 32))  # padded shape (1,2,34,34), p=1
    b = rng.standard_normal((1, 2, 30, 30))  # padded shape (1,2,34,34), p=2
    F.im2col_t(a, 3, 1, 1)  # dirty the p=1 workspace interior
    cols_t, _ = F.im2col_t(b, 3, 1, 2)
    ref = np.zeros((1, 2, 34, 34))
    ref[:, :, 2:32, 2:32] = b
    ref_cols_t, _ = F.im2col_t(ref, 3, 1, 0)
    np.testing.assert_array_equal(cols_t, ref_cols_t)


def test_conv2d_from_cols_t_matches_row_major(rng):
    x = rng.normal(size=(2, 3, 8, 8))
    w = rng.normal(size=(5, 3, 3, 3))
    bias = rng.normal(size=5)
    cols, hw = F.im2col(x, 3, 1, 1)
    # Row-major reference: (N, positions, dot) @ (dot, out_c), then NCHW.
    want = (cols @ w.reshape(5, -1).T + bias).reshape(2, *hw, 5).transpose(0, 3, 1, 2)
    cols_t, _ = F.im2col_t(x, 3, 1, 1)
    got = F.conv2d_from_cols_t(cols_t, w, hw, bias)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    # Pre-flattened weights are accepted too (the quantized conv caches them).
    got_flat = F.conv2d_from_cols_t(cols_t, w.reshape(5, -1), hw, bias)
    np.testing.assert_array_equal(got, got_flat)


def test_conv2d_emits_contiguous_nchw(rng):
    """The transposed GEMM path emits C-contiguous NCHW directly - the
    layout downstream fused reductions rely on being view-reshapable."""
    x = rng.normal(size=(1, 4, 6, 6))
    w = rng.normal(size=(8, 4, 3, 3))
    out = F.conv2d(x, w, padding=1)
    assert out.flags["C_CONTIGUOUS"]


def test_im2col_t_rejects_mis_shaped_out_buffer(rng):
    """A stale-shaped reusable buffer is a caller bug and must fail loudly,
    not silently degrade to a fresh allocation the owner never sees."""
    x = rng.normal(size=(1, 2, 6, 6))
    stale = np.empty((1, 2 * 9, 16), dtype=np.float64)  # wrong positions
    with pytest.raises(ValueError, match="out buffer"):
        F.im2col_t(x, 3, 1, 1, out=stale)
