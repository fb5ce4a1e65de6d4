"""Stateless numpy implementations of the operations used by the models.

These are shared by both the float modules in :mod:`repro.nn` and the
quantized wrappers in :mod:`repro.quant.qlayers`; keeping the math here in a
single place guarantees that the Ditto difference-processed path and the
dense path call literally the same kernels, which is what makes the
bit-exactness property tests in ``tests/test_exactness.py`` meaningful.

Numerics contract of the fused reductions (PR 5): :func:`group_norm` and
:func:`layer_norm` compute variance as ``E[x^2] - E[x]^2`` from one fused
sum/sum-of-squares pass instead of the old centered two-pass formulation.
That changes floating-point summation order, so outputs move in the last
ulps relative to the multi-pass reference.  The quantized integer paths are
unaffected (norms run *between* quantized layers, in float), and
``tests/test_hotloop_numerics.py`` pins the consequence that matters: the
calibration scales and end metrics of all seven Table I benchmarks are
invariant to far below quantization resolution.  This is the documented
bit-exactness waiver for the float (calibration) path.

Numerics contract of :func:`gelu`: the cube is ``x * x * x`` instead of
``x ** 3``.  libm ``pow`` is not correctly rounded, and the two cubes differ
in the last bit on about a quarter of inputs.  GELU outputs then differ on
~0.3% of inputs, by at most ~``eps * max(1, |x|)``
(``tests/test_hotloop_numerics.py`` bounds them by four times that).  GELU
runs between quantized layers, in the float path of the transformer MLPs
(IMG, SDM, DiT, Latte), so those benchmarks' calibration scales move far
below quantization resolution and their samples move only through rounding
flips at quantization-grid boundaries.  DDPM, BED and CHUR run no GELU and
stay bit-identical.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Dict, Optional, Tuple

import numpy as np

from .. import profiling

__all__ = [
    "silu",
    "gelu",
    "softmax",
    "group_norm",
    "layer_norm",
    "im2col",
    "im2col_t",
    "unfold_rows",
    "conv2d",
    "conv2d_from_cols",
    "conv2d_from_cols_t",
    "linear",
    "avg_pool2d",
    "upsample_nearest",
    "sinusoidal_embedding",
    "embedding_dtype",
    "set_embedding_dtype",
    "scratch_buffer",
]

# Re-exported for the layer hot paths; see repro.scratch for the contract
# (the "pad" / "rowpad" tags' zero borders are this module's own invariant -
# only the interior of those buffers is ever written, so the border stays
# zero).
from ..scratch import scratch_buffer

_perf_counter = time.perf_counter


def silu(x: np.ndarray) -> np.ndarray:
    """SiLU / swish: ``x * sigmoid(x)`` computed stably for large ``|x|``."""
    t = np.clip(x, -60.0, 60.0, out=scratch_buffer("silu", x.shape, x.dtype))
    np.negative(t, out=t)
    np.exp(t, out=t)
    t += 1.0
    return x / t


# Python float, not np.float64 scalar: NEP-50 treats numpy scalars as
# "strong", so a float64 scalar factor would silently promote the float32
# calibration fast path back to float64.  The double value is identical.
_GELU_C = float(np.sqrt(2.0 / np.pi))


def gelu(x: np.ndarray) -> np.ndarray:
    """GELU with the tanh approximation used by DiT-style transformers.

    ``0.5 * x * (1 + tanh(_GELU_C * (x + 0.044715 * x^3)))``, evaluated in
    one pooled buffer in exactly that operation order.  The cube is
    ``x * x * x`` (as in PyTorch's tanh-GELU kernel), not ``x ** 3``:
    numpy sends the power to libm ``pow``, ~70 ns per element.  See the
    module docstring for the numerics waiver.
    """
    t = np.multiply(x, x, out=scratch_buffer("gelu", x.shape, x.dtype))
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    t += 1.0
    out = 0.5 * x
    out *= t
    return out


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)  # fresh; reuse in place
    np.exp(shifted, out=shifted)
    shifted /= np.sum(shifted, axis=axis, keepdims=True)
    return shifted


def _finish_moments(s1: np.ndarray, s2: np.ndarray, count: int, eps: float):
    """(mean, 1/std) from a fused sum / sum-of-squares pass.

    Callers MUST accumulate ``s1``/``s2`` in float64 (``dtype=np.float64``
    on the reductions) even for float32 inputs: ``var = E[x^2] - mean^2``
    cancels catastrophically when the variance is small relative to the
    mean, and in float32 that can annihilate the variance entirely - float64
    keeps the cancellation error at ~``eps64 * mean^2/var``, i.e. last-ulp
    territory for any realistic normalization statistics.  It can still go
    infinitesimally negative from rounding; clip before the sqrt so the
    fused path can never produce NaNs the two-pass formulation would not.
    All arrays here are per-group scalars (tiny), so the extra elementwise
    ops are free compared to the full-tensor passes they replace.
    """
    mean = s1 / count
    var = s2 / count
    var -= mean * mean
    np.clip(var, 0.0, None, out=var)
    var += eps
    np.sqrt(var, out=var)
    inv_std = np.divide(1.0, var, out=var)
    return mean, inv_std


def group_norm(
    x: np.ndarray,
    num_groups: int,
    weight: Optional[np.ndarray] = None,
    bias: Optional[np.ndarray] = None,
    eps: float = 1e-5,
) -> np.ndarray:
    """GroupNorm over ``(N, C, H, W)`` activations, fused single-pass stats.

    The statistics come from one fused ``einsum`` pass per moment (sum and
    sum of squares) over an axis-split *view* - no centered full-size
    temporary, no layout-dependent reduction subtlety - and the
    normalization + affine collapse into one per-channel multiply-add:
    ``out = x * (w/std) + (b - mean*w/std)``.  See the module docstring for
    the summation-order waiver.
    """
    prof = profiling.active()
    t0 = _perf_counter() if prof is not None else 0.0
    n, c, h, w = x.shape
    if c % num_groups:
        raise ValueError(f"channels {c} not divisible by groups {num_groups}")
    per_group = c // num_groups
    count = per_group * h * w
    # 2-d flat view per group: the conv path now emits C-contiguous NCHW,
    # so this reshape is free on the hot path (and one compacting copy -
    # still cheaper than the centered temporaries it replaces - elsewhere).
    flat = x.reshape(n * num_groups, count)
    # float64 accumulation regardless of input dtype - see _finish_moments.
    s1 = flat.sum(axis=1, dtype=np.float64)
    s2 = np.einsum("ij,ij->i", flat, flat, dtype=np.float64)
    mean, inv_std = _finish_moments(
        s1.reshape(n, num_groups), s2.reshape(n, num_groups), count, eps
    )
    # Fold the affine into per-(n, c) scale/shift (tiny arrays), then apply
    # in two full passes: one multiply into a fresh output, one in-place add.
    if weight is not None:
        scale = inv_std[:, :, None] * weight.reshape(num_groups, per_group)[None]
    else:
        scale = np.repeat(inv_std[:, :, None], per_group, axis=2)
    shift = -mean[:, :, None] * scale
    if bias is not None:
        shift += bias.reshape(num_groups, per_group)[None]
    # Cast the folded affine back to the input dtype: a float64 scale array
    # would silently promote the whole float32 calibration trajectory.
    scale = scale.reshape(n, c, 1, 1).astype(x.dtype, copy=False)
    shift = shift.reshape(n, c, 1, 1).astype(x.dtype, copy=False)
    out = x * scale
    out += shift
    if prof is not None:
        prof.add("norm", _perf_counter() - t0)
    return out


def layer_norm(
    x: np.ndarray,
    weight: Optional[np.ndarray] = None,
    bias: Optional[np.ndarray] = None,
    eps: float = 1e-5,
) -> np.ndarray:
    """LayerNorm over the trailing dimension, fused single-pass stats.

    Same fused-moment formulation as :func:`group_norm` (one ``einsum``
    sum-of-squares pass, no centered temporary); the affine weight/bias stay
    separate passes because they are per-feature while the moments are
    per-row.
    """
    prof = profiling.active()
    t0 = _perf_counter() if prof is not None else 0.0
    d = x.shape[-1]
    # float64 accumulation regardless of input dtype - see _finish_moments.
    s1 = x.sum(axis=-1, keepdims=True, dtype=np.float64)
    s2 = np.einsum("...i,...i->...", x, x, dtype=np.float64)[..., None]
    mean, inv_std = _finish_moments(s1, s2, d, eps)
    shift = (-mean * inv_std).astype(x.dtype, copy=False)
    inv_std = inv_std.astype(x.dtype, copy=False)
    out = x * inv_std
    out += shift
    if weight is not None:
        out *= weight
    if bias is not None:
        out += bias
    if prof is not None:
        prof.add("norm", _perf_counter() - t0)
    return out


def _pad_workspace(x: np.ndarray, padding: int) -> np.ndarray:
    """Copy ``x`` into the preallocated zero-bordered pad workspace.

    Only the interior is ever written, so the zero border survives across
    reuses.  The padding width is part of the key - two calls whose padded
    shapes coincide but whose borders differ must not share a buffer, or
    stale interior values would masquerade as padding.
    """
    n, c, h, w = x.shape
    padded = scratch_buffer(
        f"pad{padding}", (n, c, h + 2 * padding, w + 2 * padding), x.dtype
    )
    padded[:, :, padding : padding + h, padding : padding + w] = x
    return padded


def im2col(
    x: np.ndarray,
    kernel: int,
    stride: int = 1,
    padding: int = 0,
    out: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Unfold ``(N, C, H, W)`` into ``(N, out_h*out_w, C*k*k)`` patch rows.

    Rows are ordered by output spatial position (row-major).  That ordering is
    load-bearing for the Diffy-style spatial difference path, which differences
    *consecutive sliding windows* - i.e. consecutive rows of this matrix.

    ``out``, when given with the right shape and dtype, receives the patch
    rows in place (callers owning reusable buffers skip the per-call
    allocation); otherwise a fresh array is returned.

    This is the row-major layout consumed by :func:`conv2d_from_cols`; the
    quantized conv hot path uses the transposed, block-copied
    :func:`im2col_t` instead.
    """
    prof = profiling.active()
    t0 = _perf_counter() if prof is not None else 0.0
    n, c, h, w = x.shape
    padded = None
    if padding:
        padded = _pad_workspace(x, padding)
        x = padded
    ph, pw = x.shape[2], x.shape[3]
    out_h = (ph - kernel) // stride + 1
    out_w = (pw - kernel) // stride + 1
    s_n, s_c, s_h, s_w = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kernel, kernel),
        strides=(s_n, s_c, s_h * stride, s_w * stride, s_h, s_w),
        writeable=False,
    )
    transposed = windows.transpose(0, 2, 3, 1, 4, 5)
    if out is not None and out.shape == (n, out_h * out_w, c * kernel * kernel):
        # copyto casts on the fly (e.g. float64 patches into a float32
        # buffer for the provably-exact single-precision integer GEMM).
        np.copyto(out.reshape(n, out_h, out_w, c, kernel, kernel), transposed)
        if prof is not None:
            prof.add("im2col", _perf_counter() - t0)
        return out, (out_h, out_w)
    cols = transposed.reshape(n, out_h * out_w, c * kernel * kernel)
    cols = np.ascontiguousarray(cols)
    if padded is not None and np.shares_memory(cols, padded):
        cols = cols.copy()  # detach from the reusable workspace
    if prof is not None:
        prof.add("im2col", _perf_counter() - t0)
    return cols, (out_h, out_w)


def im2col_t(
    x: np.ndarray,
    kernel: int,
    stride: int = 1,
    padding: int = 0,
    out: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Unfold ``(N, C, H, W)`` into transposed ``(N, C*k*k, out_h*out_w)``.

    The transposed twin of :func:`im2col`: patch features are the middle
    axis (same ``(c, ki, kj)`` order as a flattened conv weight), spatial
    positions the trailing one.  Column *values* are identical to
    ``im2col(...)`` - only the memory layout differs - so the Ditto
    linearity identities (``im2col(a - b) == im2col(a) - im2col(b)``), the
    spatial-difference stats, and the exact-f32 GEMM bound all carry over
    unchanged.

    The payoff is the gather itself: for stride 1 (every conv in the UNet /
    VAE trunks) the unfold becomes ``k*k`` *shifted contiguous block
    copies* - each kernel offset ``(ki, kj)`` copies the whole shifted
    ``(N, C, out_h, out_w)`` image block, contiguous runs of ``out_w`` on
    the source and ``out_h*out_w`` on the destination - instead of a 6-d
    strided gather whose innermost contiguous run is ``k`` elements.  The
    matching GEMM (:func:`conv2d_from_cols_t`) then emits NCHW outputs
    directly, with no transposed view for downstream consumers to trip on.

    ``stride > 1`` (the ``Downsample`` / VAE-encoder convs) now runs the
    *same* blocked scheme instead of the old monolithic 6-d
    ``as_strided`` window gather: each kernel offset ``(ki, kj)`` copies
    its whole shifted block in one call - the source rows are the
    stride-``s`` slices ``x[:, :, ki::s, kj::s]`` - so the unfold is
    ``k*k`` block copies for every stride, one code shape, no
    manufactured striding.  (numpy's strided-copy iterator already
    gathers the contiguous ``k``-element source runs along the kernel
    axis in either formulation; the blocked form makes that structure
    explicit, removes the repo's last writeable=False ``as_strided``
    alias on the hot path, and is what a thread-per-block variant would
    split.)  The per-stride cost is attributed to the ``im2col_s1`` /
    ``im2col_s2`` profiling sub-buckets (plus ``im2col_s1_elems`` /
    ``im2col_s2_elems`` element counters) so the stride-2-vs-stride-1
    per-element parity claim is *gated* by ``scripts/check_bench.py``
    against ``BENCH_PR10.json``, not asserted.
    """
    prof = profiling.active()
    t0 = _perf_counter() if prof is not None else 0.0
    n, c, h, w = x.shape
    if padding:
        x = _pad_workspace(x, padding)
    ph, pw = x.shape[2], x.shape[3]
    out_h = (ph - kernel) // stride + 1
    out_w = (pw - kernel) // stride + 1
    dot_len = c * kernel * kernel
    positions = out_h * out_w
    if out is not None:
        # Unlike im2col's legacy silent fallback, a mis-shaped buffer here
        # is a caller bug (stale per-layer buffer after a shape change):
        # returning a fresh array while leaving ``out`` untouched would let
        # the owner keep consuming stale patch data without any error.
        if out.shape != (n, dot_len, positions):
            raise ValueError(
                f"im2col_t out buffer has shape {out.shape}, need "
                f"{(n, dot_len, positions)}"
            )
        cols_t = out
    else:
        cols_t = np.empty((n, dot_len, positions), dtype=x.dtype)
    # (N, C, k, k, out_h, out_w): splitting the contiguous (dot, positions)
    # axes, so writes through this view land in the transposed layout.
    view6 = cols_t.reshape(n, c, kernel, kernel, out_h, out_w)
    if stride == 1:
        for ki in range(kernel):
            for kj in range(kernel):
                # copyto casts on the fly (float64 -> float32 buffers).
                np.copyto(
                    view6[:, :, ki, kj],
                    x[:, :, ki : ki + out_h, kj : kj + out_w],
                )
    elif kernel == 1:
        # 1x1 stride-s conv: the unfold is a single decimated block copy.
        np.copyto(view6[:, :, 0, 0], x[:, :, ::stride, ::stride])
    else:
        # Blocked stride-s gather (see docstring): the stride-1 scheme with
        # the source block decimated - one shifted block copy per kernel
        # offset, no 6-d as_strided window view.
        h_stop = (out_h - 1) * stride + 1
        w_stop = (out_w - 1) * stride + 1
        for ki in range(kernel):
            for kj in range(kernel):
                np.copyto(
                    view6[:, :, ki, kj],
                    x[:, :, ki : ki + h_stop : stride, kj : kj + w_stop : stride],
                )
    if prof is not None:
        elapsed = _perf_counter() - t0
        prof.add("im2col", elapsed)
        # Per-stride sub-buckets: check_bench.py gates stride-2 per-element
        # parity with stride-1 from these (seconds + element counters).
        if stride == 1:
            prof.add("im2col_s1", elapsed)
            prof.add("im2col_s1_elems", float(cols_t.size))
        else:
            prof.add("im2col_s2", elapsed)
            prof.add("im2col_s2_elems", float(cols_t.size))
    return cols_t, (out_h, out_w)


def unfold_rows(
    x: np.ndarray,
    kernel: int,
    padding: int = 0,
    out: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Row-shift unfold of ``(N, C, H, W)`` for a stride-1 ``k x k`` conv.

    Each channel of the zero-padded ``(Hp, Wp)`` input is read as one flat
    row of ``Hp*Wp`` values, and only the ``k`` horizontal taps are unfolded:
    ``rows[n, c*k + kj, j] == padded_flat[n, c, j + kj]``, shape
    ``(N, C*k, Hp*Wp)``.  That is ``k`` contiguous copies with runs of about
    ``Hp*Wp`` elements, against ``k*k`` block copies with ``out_w``-element
    runs for :func:`im2col_t`.

    The vertical taps need no copy: tap ``ki`` of the output at ``(r, c)``
    is ``rows[..., (r + ki)*Wp + c]``, so for each ``ki`` the slice
    ``rows[..., ki*Wp : ki*Wp + out_h*Wp]`` is an ``(out_h, Wp)`` grid whose
    first ``out_w`` columns are exactly the im2col columns of tap row
    ``ki`` (``c + kj <= Wp - 1``, so a valid column never wraps into the
    next row).  A conv is then ``k`` GEMMs over those slices, summed, with
    the ``Wp - out_w`` wrap-around columns of each row dropped afterwards.

    The last slice reads up to ``k - 1`` values past the flattened image;
    they come from a spare zero row below it and reach wrap-around columns
    only.  The padded copy lives in its own ``rowpad{p}`` scratch key: the
    key's shape fixes ``(H, W)`` for its padding, so no caller ever writes
    its border or spare row.  (A ``pad{p}`` workspace of the same shape
    belongs to an input one row taller, whose interior covers that row.)

    Returns ``(rows, (out_h, out_w))``; ``out`` must have the rows shape
    and receives the unfold (with a cast, e.g. float64 into float32).
    """
    prof = profiling.active()
    t0 = _perf_counter() if prof is not None else 0.0
    n, c, h, w = x.shape
    ph, pw = h + 2 * padding, w + 2 * padding
    length = ph * pw
    padded = scratch_buffer(f"rowpad{padding}", (n, c, ph + 1, pw), x.dtype)
    padded[:, :, padding : padding + h, padding : padding + w] = x
    flat = padded.reshape(n, c, (ph + 1) * pw)
    if out is not None:
        # A mis-shaped buffer is a caller bug, as for im2col_t.
        if out.shape != (n, c * kernel, length):
            raise ValueError(
                f"unfold_rows out buffer has shape {out.shape}, need "
                f"{(n, c * kernel, length)}"
            )
        rows = out
    else:
        rows = np.empty((n, c * kernel, length), dtype=x.dtype)
    taps = rows.reshape(n, c, kernel, length)
    for kj in range(kernel):
        np.copyto(taps[:, :, kj], flat[:, :, kj : kj + length])
    if prof is not None:
        # The whole-unfold bucket only: the im2col_s1 / im2col_s2 sub-buckets
        # keep timing im2col_t's square-kernel gather for the parity gate.
        prof.add("im2col", _perf_counter() - t0)
    return rows, (ph - kernel + 1, pw - kernel + 1)


def conv2d_from_cols(
    cols: np.ndarray,
    weight: np.ndarray,
    out_hw: Tuple[int, int],
    bias: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Finish a convolution given pre-unfolded patch rows.

    ``weight`` has shape ``(out_c, in_c, k, k)``; ``cols`` comes from
    :func:`im2col`.
    """
    out_c = weight.shape[0]
    flat_w = weight.reshape(out_c, -1)
    out = cols @ flat_w.T
    if bias is not None:
        out = out + bias
    n = cols.shape[0]
    out_h, out_w = out_hw
    return out.reshape(n, out_h, out_w, out_c).transpose(0, 3, 1, 2)


def conv2d_from_cols_t(
    cols_t: np.ndarray,
    weight: np.ndarray,
    out_hw: Tuple[int, int],
    bias: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Finish a convolution given transposed patch columns.

    ``cols_t`` comes from :func:`im2col_t`; ``weight`` is either the usual
    ``(out_c, in_c, k, k)`` tensor or an already-flattened ``(out_c, dot)``
    matrix (the quantized conv caches the flattened form).  The GEMM runs
    ``(out_c, dot) @ (N, dot, positions)`` and reshapes straight to a
    C-contiguous ``(N, out_c, out_h, out_w)`` - no output transpose.
    """
    flat_w = weight if weight.ndim == 2 else weight.reshape(weight.shape[0], -1)
    out = np.matmul(flat_w, cols_t)
    if bias is not None:
        out += bias[:, None]
    n = cols_t.shape[0]
    return out.reshape(n, flat_w.shape[0], *out_hw)


def conv2d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray] = None,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """2-D convolution via blocked im2col; exact for integer-valued inputs."""
    kernel = weight.shape[2]
    n, c, h, w = x.shape
    out_h = (h + 2 * padding - kernel) // stride + 1
    out_w = (w + 2 * padding - kernel) // stride + 1
    # The patch columns are consumed by the matmul before this returns, so
    # they can live in the shared per-thread scratch pool.
    cols_t, out_hw = im2col_t(
        x,
        kernel,
        stride,
        padding,
        out=scratch_buffer(
            "conv2d-cols", (n, c * kernel * kernel, out_h * out_w), x.dtype
        ),
    )
    return conv2d_from_cols_t(cols_t, weight, out_hw, bias)


def linear(
    x: np.ndarray, weight: np.ndarray, bias: Optional[np.ndarray] = None
) -> np.ndarray:
    """Affine map over the trailing dimension; ``weight`` is ``(out, in)``."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def avg_pool2d(x: np.ndarray, kernel: int = 2) -> np.ndarray:
    n, c, h, w = x.shape
    if h % kernel or w % kernel:
        raise ValueError(f"spatial dims ({h},{w}) not divisible by {kernel}")
    return x.reshape(n, c, h // kernel, kernel, w // kernel, kernel).mean(axis=(3, 5))


def upsample_nearest(x: np.ndarray, scale: int = 2) -> np.ndarray:
    return x.repeat(scale, axis=2).repeat(scale, axis=3)


# Frequency tables are tiny, deterministic in (dim, max_period), and
# recomputed on every denoiser call otherwise; memoize them read-only.
_FREQ_CACHE: Dict[Tuple[int, float], np.ndarray] = {}

# Thread-local embedding output dtype override.  Sinusoidal tables always
# *compute* in float64 (the cache stays exact); the float32 calibration
# fast path sets this so the embedding result - the one float64 source
# inside every denoiser forward - does not re-promote the whole trajectory.
_EMBED_DTYPE = threading.local()


def set_embedding_dtype(dtype) -> None:
    """Set (or with ``None`` clear) this thread's embedding output dtype."""
    _EMBED_DTYPE.dtype = None if dtype is None else np.dtype(dtype)


def embedding_dtype():
    """This thread's embedding output dtype override, or ``None``."""
    return getattr(_EMBED_DTYPE, "dtype", None)


def _sinusoidal_freqs(dim: int, max_period: float) -> np.ndarray:
    key = (dim, float(max_period))
    freqs = _FREQ_CACHE.get(key)
    if freqs is None:
        half = dim // 2
        freqs = np.exp(-math.log(max_period) * np.arange(half) / max(half, 1))
        freqs.setflags(write=False)
        _FREQ_CACHE[key] = freqs
    return freqs


def sinusoidal_embedding(timesteps: np.ndarray, dim: int, max_period: float = 10000.0) -> np.ndarray:
    """Transformer-style sinusoidal timestep embedding ``(len(t), dim)``."""
    timesteps = np.atleast_1d(np.asarray(timesteps, dtype=np.float64))
    freqs = _sinusoidal_freqs(dim, max_period)
    args = timesteps[:, None] * freqs[None, :]
    emb = np.concatenate([np.cos(args), np.sin(args)], axis=-1)
    if dim % 2:
        emb = np.concatenate([emb, np.zeros((emb.shape[0], 1))], axis=-1)
    dtype = embedding_dtype()
    if dtype is not None and emb.dtype != dtype:
        emb = emb.astype(dtype)
    return emb
