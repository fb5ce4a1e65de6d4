"""Quantized layers implementing the Ditto difference-processing algorithm.

Each quantized layer supports three execution paths (paper Section IV):

* **dense** - quantize the input, run the full-bit-width integer operation.
* **temporal** - subtract the previous time step's quantized input, run the
  layer only on the integer difference, and add the previous step's integer
  output back (distributive property; *bit-exact* with the dense path).
* **spatial** - Diffy-style intra-tensor differences between consecutive
  sliding windows / token rows; also bit-exact.

Only a TEMPORAL layer keeps state (``_prev_*``, attention's ``_prev``); a
DENSE layer is stateless.  On the host both modes give the same bits (the
zero-state algebra, ``docs/contracts.md``), so the engine runs TEMPORAL only
when a trace is recorded and DENSE otherwise - the accelerator's saving is
modelled from the trace by :mod:`repro.hw`, not realised here.  A TEMPORAL
layer with no state yet executes dense and records ``executed_mode=DENSE``.

Every forward records a :class:`~repro.core.trace.RichLayerStep` carrying the
operand composition (zero / 4-bit / 8-bit) of *all three* paths, so the
hardware models and Defo can be evaluated post-hoc on a single run.

Attention gets the paper's two algebraic tricks: self-attention temporal
processing uses ``Q_t K_t = Q_{t+1} K_{t+1} + Q_t dK + dQ K_{t+1}`` (two
sub-operations instead of three), and cross-attention treats the constant
context projections K'/V' as weights.

Self-attention's Q/K/V projections read the same tensor through one shared
input quantizer, so they run as **one projection**: one quantize, one
temporal difference, one set of dense / spatial / temporal stats and one
GEMM against the three weights stacked as column blocks of an
``(in, 3*dim)`` array; each block then gets its own projection's epilogue
and trace record, bit-identical to three separate forwards.  The attention
layer holds that projection's temporal state; ``to_q`` / ``to_k`` /
``to_v`` hold none.

Weight layout: a :class:`QLinear` stores its integer weight once,
C-contiguous in GEMM-native ``(in, out)`` order; ``q_weight`` is the
``(out, in)`` transposed view, so ``x @ q_weight.T`` is a plain NN GEMM.
Self-attention's ``to_q`` / ``to_k`` / ``to_v`` weights are column blocks
of the stacked array, so no weight is stored twice.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..core.bitwidth import BitWidthStats, classify, classify_many
from ..core.modes import ExecutionMode
from ..core.trace import RichLayerStep, TraceRecorder, record_step
from ..nn import backends
from ..nn import functional as F
from ..nn.attention import Attention
from ..nn.layers import Conv2d, Linear
from ..nn.module import Module
from .quantizer import SymmetricQuantizer, qrange
from .tdq import active_step

__all__ = [
    "QLayerBase",
    "QLinear",
    "QConv2d",
    "QAttention",
    "quantize_model",
    "iter_qlayers",
    "reset_model_state",
    "set_model_mode",
    "remap_model_rows",
]


def _flatten_rows(x: np.ndarray) -> np.ndarray:
    """View ``x`` as ``(rows, features)`` over the trailing dimension."""
    return x.reshape(-1, x.shape[-1])


def _max_product(bits: int) -> int:
    """Worst-case magnitude of one multiply in the difference algebra.

    Quantized values are clipped to |q| <= 2^(bits-1), but *temporal and
    spatial differences* of two such values span up to 2^bits - 1.  Every
    GEMM in the Ditto paths multiplies at most (difference x quantized
    value), so the exact per-term bound that the float32 exactness gate
    must honour is (2^bits - 1) * 2^(bits-1) (255 * 128 = 32,640 at 8
    bits), not the dense 2^(2*(bits-1)).  As 514 * 32,640 < 2^24 <
    515 * 32,640, the longest gated 8-bit dot product has 514 terms.
    """
    return ((1 << bits) - 1) << (bits - 1)


def _spatial_diff_rows(mat: np.ndarray) -> np.ndarray:
    """Difference consecutive rows; the first row stays original (dense)."""
    d = mat.copy()
    if mat.shape[0] > 1:
        d[1:] -= mat[:-1]
    return d


# Spatial-difference scratch is int16 throughout: a difference of two
# ``bits``-bit quantized values spans |d| <= 2^bits - 1 <= 32767 (QLayerBase
# caps ``bits`` at 15), and int16 is the dtype classify narrows to anyway.


def _row_diff_stats(mat: np.ndarray) -> BitWidthStats:
    """Stats of Diffy row differencing, ``classify(_spatial_diff_rows(mat))``.

    The token-row matrices this sees (linear / attention operands) are small,
    so one fused scan of a scratch-buffered difference image beats scanning
    the first row and the differences separately.
    """
    if mat.shape[0] <= 1:
        return classify(mat)
    buf = F.scratch_buffer("rowdiff", mat.shape, np.int16)
    buf[:1] = mat[:1]  # exact: values are small integers
    np.subtract(mat[1:], mat[:-1], out=buf[1:], casting="unsafe")
    return classify(buf)


def _cols_spatial_stats_t(cols_t: np.ndarray) -> BitWidthStats:
    """Diffy stats over transposed ``(N, dot, P)`` im2col columns.

    Equivalent to classifying, per batch image, the first sliding window
    dense plus the differences of consecutive windows - which here are
    consecutive entries of the trailing *positions* axis.  The differenced
    value multiset (and therefore the classification histogram) is
    identical to the old row-major formulation, in one fused pass.
    """
    if cols_t.shape[2] <= 1:
        return classify_many(cols_t)
    diff_shape = (cols_t.shape[0], cols_t.shape[1], cols_t.shape[2] - 1)
    diff = np.subtract(
        cols_t[:, :, 1:],
        cols_t[:, :, :-1],
        out=F.scratch_buffer("coldiff", diff_shape, np.int16),
        casting="unsafe",
    )
    return classify_many(cols_t[:, :, :1], diff)


def _rows_spatial_stats(
    rows: np.ndarray, kernel: int, out_hw: Tuple[int, int]
) -> BitWidthStats:
    """Diffy stats over a stride-1 row-shift unfold ``(N, C*k, Hp*Wp)``.

    Viewed as ``(N, C*k, Hp, Wp)``, vertical tap ``ki``'s sliding-window
    values are rows ``[ki, ki + out_h)`` cut to ``[..., :out_w]``.  Per
    ``ki``, the first window plus the within-row differences (consecutive
    columns) and across-row differences (first column of row ``r + 1``
    minus last valid column of row ``r``) are the value multiset
    :func:`_cols_spatial_stats_t` classifies over the im2col positions, so
    the histogram is identical.  Both difference sets are taken once over
    all ``Hp`` rows and each tap reads its ``out_h``-row window of them.
    """
    out_h, out_w = out_hw
    n, dot, length = rows.shape
    wp = out_w + kernel - 1
    img = rows.reshape(n, dot, length // wp, wp)
    hp = img.shape[2]
    within = np.subtract(
        img[..., 1:out_w],
        img[..., : out_w - 1],
        out=F.scratch_buffer("rowdiff-within", (n, dot, hp, out_w - 1), np.int16),
        casting="unsafe",
    )
    across = np.subtract(
        img[:, :, 1:, 0],
        img[:, :, :-1, out_w - 1],
        out=F.scratch_buffer("rowdiff-across", (n, dot, hp - 1), np.int16),
        casting="unsafe",
    )
    pieces = []
    for ki in range(kernel):
        pieces += (
            img[:, :, ki, :1],
            within[:, :, ki : ki + out_h],
            across[:, :, ki : ki + out_h - 1],
        )
    return classify_many(*pieces)


class QLayerBase(Module):
    """Shared machinery: mode flag, input quantizer, temporal state."""

    is_linear_op = True
    kind = "fc"

    def __init__(self, bits: int = 8) -> None:
        super().__init__()
        if bits > 15:
            # Quantized values and their differences must fit int16, the
            # dtype bit-width classification runs on (repro.core.bitwidth).
            raise ValueError(f"at most 15-bit quantization is supported, got {bits}")
        self.layer_name = ""
        self.mode = ExecutionMode.DENSE
        self.bits = bits
        self.input_quant = SymmetricQuantizer(bits)
        self.nonlinear_after = True
        self.chained_input = False
        self.producer_kind = "other"
        self._prev_q_in: Optional[np.ndarray] = None
        self._prev_out_int: Optional[np.ndarray] = None
        self._prev_scale: Optional[float] = None

    def reset_state(self) -> None:
        self._prev_q_in = None
        self._prev_out_int = None
        self._prev_scale = None

    def _keep_state(self, q_in: np.ndarray, out_int: np.ndarray) -> None:
        """Hold this step's operands for the next temporal step.

        Only a TEMPORAL layer keeps state; a DENSE (or SPATIAL) layer is
        stateless, so plain runs and serving sessions carry no ``_prev_*``
        tensors.  Plain state fields: skip Module.__setattr__'s checks.
        """
        if self.mode is ExecutionMode.TEMPORAL:
            d = self.__dict__
            d["_prev_q_in"] = q_in
            d["_prev_out_int"] = out_int
            d["_prev_scale"] = self.input_quant.scale

    def _temporal_diff(self, q_in: np.ndarray) -> Optional[np.ndarray]:
        prev = self._prev_q_in
        if prev is None or prev.shape != q_in.shape:
            return None
        # Timestep-clustered quantization (repro.quant.tdq) changes the
        # integer grid at cluster boundaries: the cached state was produced
        # under another scale, so differencing against it would be wrong.
        # Ditto then re-runs one dense step, exactly as the paper's synergy
        # with Q-Diffusion/TDQ requires.  Within a cluster the quantizer
        # serves the same scale object, so identity skips the compare.
        prev_scale, scale = self._prev_scale, self.input_quant.scale
        if prev_scale is not scale and np.any(prev_scale != scale):
            return None
        # The difference is consumed within this forward (matmul operand
        # and/or classification) before any other layer runs, so it can live
        # in the shared per-thread scratch pool.
        return np.subtract(
            q_in, prev, out=F.scratch_buffer("temporal-diff", q_in.shape, q_in.dtype)
        )

    def _effective_mode(self, diff: Optional[np.ndarray]) -> ExecutionMode:
        if self.mode is ExecutionMode.TEMPORAL and diff is None:
            return ExecutionMode.DENSE
        return self.mode

    def _project(self, x: np.ndarray, q_weight: np.ndarray):
        """Integer linear projection of ``x`` against ``q_weight`` (out, in).

        Quantizes with this layer's input quantizer, differences against
        its held state and runs the one GEMM; returns ``(q_in, diff,
        out_int)``.  :class:`QLinear` projects through its own weight;
        self-attention projects Q/K/V at once through the stacked weight,
        holding the state itself (see :class:`QAttention`).
        """
        # The weight is stored in the dtype its GEMM runs (the exact-f32
        # gate); quantized values are exact small integers, so a float32
        # q_in halves the traffic of every downstream scan.
        q_in = self.input_quant.quantize(
            x, out_dtype=np.float32 if q_weight.dtype == np.float32 else None
        )
        diff = self._temporal_diff(q_in)
        bk = backends.active()
        if self._effective_mode(diff) is ExecutionMode.TEMPORAL:
            # float64 + float32 upcasts exactly; the sum runs in float64.
            out_int = self._prev_out_int + bk.linear(diff, q_weight)
        else:
            # Dense and spatial paths share arithmetic: the spatial path's
            # row-cumulative reconstruction telescopes to the plain matmul.
            out_int = bk.linear(q_in, q_weight)
            if out_int.dtype != np.float64:
                out_int = out_int.astype(np.float64)
        return q_in, diff, out_int


def _quantize_weight(
    weight: np.ndarray, bits: int, per_channel: bool, out: np.ndarray
):
    """Weight quantization: per-tensor or per-output-channel scales.

    Q-Diffusion quantizes weights per output channel; Ditto is agnostic
    because weights are static - only the *activation* grid must be shared
    across steps.  Per-channel scales tighten the weight grid and therefore
    the end accuracy, at zero cost to difference processing.

    The integer weight is written into ``out`` (``weight``'s shape, any
    layout, the dtype the layer's GEMM runs): the cast and any layout
    change ride on the one copy out of the rounding pass.  No clip pass:
    every scale is its own tensor's (or channel's) peak over ``qmax``, so
    ``|weight / scale| <= qmax`` up to one rounding and ``rint`` stays on
    the grid.
    """
    _, qmax = qrange(bits)
    if per_channel:
        flat = weight.reshape(weight.shape[0], -1)
        peaks = np.max(np.abs(flat), axis=1)
        scales = np.where(peaks > 0.0, peaks, 1.0) / qmax
        divisor = scales.reshape((-1,) + (1,) * (weight.ndim - 1))
    else:
        quantizer = SymmetricQuantizer(bits)
        quantizer.observe(weight)
        scales = divisor = quantizer.freeze()
    # Blocks of 32 rows through one cache-resident buffer: into a
    # transposed ``out`` a whole-array pass walks one side with a large
    # stride and runs 2-4x slower on tall weights.
    block = np.empty((min(32, weight.shape[0]),) + weight.shape[1:])
    for i in range(0, weight.shape[0], 32):
        rows = weight[i : i + 32]
        q = block[: rows.shape[0]]
        np.divide(rows, divisor[i : i + 32] if per_channel else divisor, out=q)
        np.rint(q, out=q)
        out[i : i + 32] = q
    return out, scales


def _linear_gemm_dtype(in_features: int, bits: int) -> np.dtype:
    """The dtype a linear layer's integer GEMM runs in (see QConv2d): f32
    while every partial dot product stays inside float32's 2^24
    exact-integer range, else f64."""
    exact_f32 = in_features * _max_product(bits) < (1 << 24)
    return np.dtype(np.float32 if exact_f32 else np.float64)


def _linear_stats(q_in: np.ndarray, diff: Optional[np.ndarray]) -> tuple:
    """Dense, spatial (token-row) and temporal stats of one projection's
    operand - shared by every projection that reads it."""
    return (
        classify(q_in),
        _row_diff_stats(_flatten_rows(q_in)),
        None if diff is None else classify(diff),
    )


class QLinear(QLayerBase):
    """Quantized fully-connected layer with difference processing.

    ``weight_t``, when given, is the ``(in, out)`` array the integer weight
    is written into - self-attention passes column blocks of its stacked
    Q/K/V weight; by default the layer allocates its own.
    """

    kind = "fc"

    def __init__(
        self,
        weight: np.ndarray,
        bias: Optional[np.ndarray],
        bits: int = 8,
        per_channel: bool = False,
        weight_t: Optional[np.ndarray] = None,
    ) -> None:
        super().__init__(bits)
        self.out_features, self.in_features = weight.shape
        self.per_channel = per_channel
        dtype = _linear_gemm_dtype(self.in_features, bits)
        self._use_f32 = dtype == np.float32
        if weight_t is None:
            weight_t = np.empty((self.in_features, self.out_features), dtype)
        # One integer weight copy, GEMM-native: C-contiguous (in, out) in the
        # dtype this layer's GEMM runs.  q_weight is its (out, in) view.
        self.q_weight, self.weight_scale = _quantize_weight(
            weight, bits, per_channel, out=weight_t.T
        )
        self.bias = None if bias is None else np.array(bias, dtype=np.float64)

    @classmethod
    def from_float(
        cls,
        layer: Linear,
        bits: int = 8,
        per_channel: bool = False,
        weight_t: Optional[np.ndarray] = None,
    ) -> "QLinear":
        bias = layer.bias.data if layer.bias is not None else None
        return cls(layer.weight.data, bias, bits, per_channel, weight_t)

    def forward(self, x: np.ndarray) -> np.ndarray:
        q_in, diff, out_int = self._project(x, self.q_weight)
        out = self._epilogue(out_int)
        self._record(q_in, diff, out_int, self._effective_mode(diff))
        self._keep_state(q_in, out_int)
        return out

    def _epilogue(self, out_int: np.ndarray) -> np.ndarray:
        """Dequantize this projection's integer output and add the bias."""
        # weight_scale is a scalar (per-tensor) or an (out,) vector
        # (per-channel); both broadcast over the trailing output dim.
        out = out_int * (self.input_quant.scale * self.weight_scale)
        if self.bias is not None:
            out += self.bias
        return out

    def _record(
        self,
        q_in: np.ndarray,
        diff: Optional[np.ndarray],
        out_int: np.ndarray,
        executed_mode: ExecutionMode,
        stats: Optional[tuple] = None,
    ) -> None:
        """Record this projection's step; ``stats`` (see
        :func:`_linear_stats`) is passed in when another projection of the
        same operand already computed it."""
        if TraceRecorder.current() is None:
            return  # nobody is listening; skip the stats passes entirely
        dense, spatial, temporal = stats or _linear_stats(q_in, diff)
        macs = _flatten_rows(q_in).shape[0] * self.in_features * self.out_features
        record_step(
            RichLayerStep(
                step_index=_current_step(),
                layer_name=self.layer_name,
                kind=self.kind,
                macs=int(macs),
                in_elems=int(q_in.size),
                out_elems=int(out_int.size),
                weight_elems=int(self.q_weight.size),
                data_elems=int(q_in.size),
                stats_dense=dense,
                stats_spatial=spatial,
                stats_temporal=temporal,
                sub_ops_temporal=1,
                vpu_elems=int(out_int.size) if self.nonlinear_after else 0,
                nonlinear_after=self.nonlinear_after,
                chained_input=self.chained_input,
                producer_kind=self.producer_kind,
                executed_mode=executed_mode,
            )
        )

    def extra_repr(self) -> str:
        return f"in={self.in_features}, out={self.out_features}, mode={self.mode}"


class QConv2d(QLayerBase):
    """Quantized 2-D convolution with difference processing."""

    kind = "conv"

    def __init__(
        self,
        weight: np.ndarray,
        bias: Optional[np.ndarray],
        stride: int = 1,
        padding: int = 0,
        bits: int = 8,
        per_channel: bool = False,
    ) -> None:
        super().__init__(bits)
        self.out_channels, self.in_channels, self.kernel_size, _ = weight.shape
        self.stride = stride
        self.padding = padding
        self.per_channel = per_channel
        # Single-precision integer GEMM, used only when provably exact: every
        # partial dot product must stay inside float32's 2^24 exact-integer
        # range for the worst-case operands (see _max_product - temporal
        # *differences* span twice the quantized range).  Then the f32 kernel
        # is bit-exact while halving unfold/stat memory traffic and doubling
        # GEMM rate.
        dot_len = self.in_channels * self.kernel_size * self.kernel_size
        self._use_f32 = dot_len * _max_product(bits) < (1 << 24)
        self._cols_dtype = np.dtype(np.float32 if self._use_f32 else np.float64)
        # One integer weight copy, in the dtype this layer's GEMM runs.
        self.q_weight, self.weight_scale = _quantize_weight(
            weight, bits, per_channel, out=np.empty(weight.shape, self._cols_dtype)
        )
        self.bias = None if bias is None else np.array(bias, dtype=np.float64)
        # Stride-1 convs run the row-shift GEMMs (see _conv), one per
        # vertical tap: _w_rows[ki][o, c*k + kj] == q_weight[o, c, ki, kj].
        self._w_rows = None
        if stride == 1:
            self._w_rows = np.ascontiguousarray(
                self.q_weight.transpose(2, 0, 1, 3).reshape(
                    self.kernel_size, self.out_channels, -1
                )
            )

    @classmethod
    def from_float(
        cls, layer: Conv2d, bits: int = 8, per_channel: bool = False
    ) -> "QConv2d":
        bias = layer.bias.data if layer.bias is not None else None
        return cls(
            layer.weight.data, bias, layer.stride, layer.padding, bits, per_channel
        )

    def _unfold(self, x: np.ndarray):
        """Unfold ``x`` for :meth:`_conv` into the shared scratch pool.

        Stride 1 takes the row-shift layout (``unfold_rows``); a 1x1
        unpadded conv's contiguous operand already is that layout, so it is
        used as is.  Larger strides take the blocked transposed im2col.
        Every caller consumes the result (GEMM or spatial stats) before the
        next unfold, so one pooled buffer per shape serves all conv layers.
        """
        n, c, h, w = x.shape
        k, p = self.kernel_size, self.padding
        bk = backends.active()
        if self.stride == 1:
            if k == 1 and not p:
                return x.reshape(n, c, h * w), (h, w)
            length = (h + 2 * p) * (w + 2 * p)
            return bk.unfold_rows(
                x,
                k,
                p,
                out=F.scratch_buffer(
                    "qconv-rows", (n, c * k, length), self._cols_dtype
                ),
            )
        out_h = (h + 2 * p - k) // self.stride + 1
        out_w = (w + 2 * p - k) // self.stride + 1
        return bk.im2col_t(
            x,
            k,
            self.stride,
            p,
            out=F.scratch_buffer(
                "qconv-cols", (n, c * k * k, out_h * out_w), self._cols_dtype
            ),
        )

    def _conv(self, cols: np.ndarray, out_hw: Tuple[int, int]) -> np.ndarray:
        """Integer conv product ``(N, out_c, out_h, out_w)`` of an unfold.

        Stride 1: vertical tap ``ki`` is the row buffer read ``ki`` padded
        rows further on, so the conv is ``k`` GEMMs over overlapping slices
        of it, summed.  Each slice spans ``out_h`` whole padded rows; the
        ``Wp - out_w`` columns per row that wrap into the next row are
        dropped by the returned view.  Every partial sum is an integer
        inside the exact-f32 gate's bound, so the k-way sum is exact.
        """
        bk = backends.active()
        if self.stride != 1:
            return bk.conv2d_from_cols_t(cols, self.q_weight, out_hw)
        out_h, out_w = out_hw
        wp = out_w + self.kernel_size - 1
        span = out_h * wp
        conv = bk.matmul(self._w_rows[0], cols[:, :, :span])
        for ki in range(1, self.kernel_size):
            conv += bk.matmul(self._w_rows[ki], cols[:, :, ki * wp : ki * wp + span])
        return conv.reshape(cols.shape[0], self.out_channels, out_h, wp)[..., :out_w]

    def forward(self, x: np.ndarray) -> np.ndarray:
        # Values are exact small integers; float32 halves the memory traffic
        # of every downstream scan (diff, stats, unfold).
        q_in = self.input_quant.quantize(
            x, out_dtype=np.float32 if self._use_f32 else None
        )
        diff = self._temporal_diff(q_in)
        temporal = self._effective_mode(diff) is ExecutionMode.TEMPORAL
        # Temporal mode unfolds the input-sized difference, not the input:
        # the unfold is linear and the zero padding border unfolds to zero
        # in both operands, so conv(unfold(q - prev_q)) == conv(q) -
        # conv(prev_q) exactly (the f32 gate already bounds differences).
        cols, out_hw = self._unfold(diff if temporal else q_in)
        conv = self._conv(cols, out_hw)
        if temporal:
            # float64 + float32 upcasts exactly; the sum runs in float64.
            out_int = self._prev_out_int + conv
        else:
            out_int = np.ascontiguousarray(conv, dtype=np.float64)
        w_scale = self.weight_scale
        if self.per_channel:
            w_scale = np.asarray(w_scale).reshape(1, -1, 1, 1)
        out = out_int * (self.input_quant.scale * w_scale)
        if self.bias is not None:
            out += self.bias.reshape(1, -1, 1, 1)
        self._record(q_in, diff, out_int, None if temporal else cols)
        self._keep_state(q_in, out_int)
        return out

    def _record(
        self,
        q_in: np.ndarray,
        diff: Optional[np.ndarray],
        out_int: np.ndarray,
        cols: Optional[np.ndarray],
    ) -> None:
        if TraceRecorder.current() is None:
            return  # nobody is listening; skip the stats passes entirely
        # Spatial (Diffy) differences live between consecutive sliding
        # windows - reused from a dense forward's unfold; a temporal forward
        # unfolded the difference, so the input is unfolded here (the GEMM
        # is already done).
        if cols is None:
            cols, _ = self._unfold(q_in)
        if self.stride == 1:
            spatial = _rows_spatial_stats(cols, self.kernel_size, out_int.shape[2:])
        else:
            spatial = _cols_spatial_stats_t(cols)
        dot_len = self.in_channels * self.kernel_size * self.kernel_size
        macs = (out_int.size // self.out_channels) * dot_len * self.out_channels
        record_step(
            RichLayerStep(
                step_index=_current_step(),
                layer_name=self.layer_name,
                kind=self.kind,
                macs=int(macs),
                in_elems=int(q_in.size),
                out_elems=int(out_int.size),
                weight_elems=int(self.q_weight.size),
                data_elems=int(q_in.size),
                stats_dense=classify(q_in),
                stats_spatial=spatial,
                stats_temporal=None if diff is None else classify(diff),
                sub_ops_temporal=1,
                vpu_elems=int(out_int.size) if self.nonlinear_after else 0,
                nonlinear_after=self.nonlinear_after,
                chained_input=self.chained_input,
                producer_kind=self.producer_kind,
                executed_mode=self._effective_mode(diff),
            )
        )

    def extra_repr(self) -> str:
        return (
            f"in={self.in_channels}, out={self.out_channels}, "
            f"k={self.kernel_size}, mode={self.mode}"
        )


class QAttention(QLayerBase):
    """Quantized multi-head attention with temporal difference processing.

    The projections are :class:`QLinear` children (names, calibration and
    trace records); this class handles the two activation-by-activation
    matmuls.  For cross attention ``to_q`` runs alone and the context
    projections are computed once and cached - K'/V' are constant across
    time steps (paper Section IV-A).

    Self-attention runs ``to_q`` / ``to_k`` / ``to_v`` as one shared
    projection (:meth:`_project_qkv`): the three share one input quantizer
    object - this layer's ``input_quant`` - and their ``q_weight`` arrays
    are views of column blocks of one stacked ``(in, 3*dim)`` weight.  This
    layer holds the shared projection's temporal state (``_prev_q_in`` /
    ``_prev_out_int`` / ``_prev_scale``, over all three blocks) and it runs
    in this layer's mode; the three children hold no state.
    """

    kind = "attn"

    def __init__(
        self, attn: Attention, bits: int = 8, per_channel: bool = False
    ) -> None:
        super().__init__(bits)
        self.dim = attn.dim
        self.num_heads = attn.num_heads
        self.head_dim = attn.head_dim
        self.is_cross = attn.is_cross
        projections = (attn.to_q, attn.to_k, attn.to_v)
        if self.is_cross:
            self._qkv_weight = None
            blocks = (None, None, None)
        else:
            # The shared projection's weight: Q, K and V column blocks of
            # one GEMM-native (in, 3*dim) array, written in place by each
            # child's weight quantization.
            in_features = attn.to_q.in_features
            stacked = np.empty(
                (in_features, 3 * self.dim), _linear_gemm_dtype(in_features, bits)
            )
            self._qkv_weight = stacked.T
            blocks = [stacked[:, i * self.dim : (i + 1) * self.dim] for i in range(3)]
        self.to_q, self.to_k, self.to_v = (
            QLinear.from_float(proj, bits, per_channel, weight_t=block)
            for proj, block in zip(projections, blocks)
        )
        if not self.is_cross:
            self.share_projection_quantizer(self.to_q.input_quant)
        self.to_out = QLinear.from_float(attn.to_out, bits, per_channel)
        # The P x V product feeds the linear output projection directly.
        self.to_out.chained_input = True
        self.q_quant = SymmetricQuantizer(bits)
        self.k_quant = SymmetricQuantizer(bits)
        self.v_quant = SymmetricQuantizer(bits)
        # Softmax probabilities live in [0, 1]; fix the scale accordingly.
        self.p_quant = SymmetricQuantizer(bits, scale=1.0 / 127.0)
        # K'/V' projections per context object: keyed by id, holding a
        # strong reference to the context so the id cannot be recycled.
        # Multi-entry because the continuous scheduler alternates batch
        # sizes (the pipeline memoizes one context object per size) - a
        # single-entry cache would re-project K'/V' on every occupancy
        # change.
        self._context_cache: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._prev: Dict[str, np.ndarray] = {}
        self.layer_name = ""  # re-assign now that the projections exist

    @property
    def layer_name(self) -> str:
        return self._layer_name

    @layer_name.setter
    def layer_name(self, value: str) -> None:
        object.__setattr__(self, "_layer_name", value)
        # Keep the projection layers' qualified names in sync so their trace
        # records are attributable even outside quantize_model.
        if hasattr(self, "to_q"):
            self.to_q.layer_name = f"{value}.to_q"
            self.to_k.layer_name = f"{value}.to_k"
            self.to_v.layer_name = f"{value}.to_v"
            self.to_out.layer_name = f"{value}.to_out"

    @classmethod
    def from_float(
        cls, attn: Attention, bits: int = 8, per_channel: bool = False
    ) -> "QAttention":
        return cls(attn, bits, per_channel)

    def share_projection_quantizer(self, quantizer: SymmetricQuantizer) -> None:
        """Make ``quantizer`` the one input quantizer of self-attention's
        shared Q/K/V projection (this layer's and all three children's)."""
        self.input_quant = quantizer
        for child in (self.to_q, self.to_k, self.to_v):
            child.input_quant = quantizer

    # -- state -----------------------------------------------------------
    def reset_state(self) -> None:
        super().reset_state()
        self._prev.clear()
        self._context_cache.clear()
        for child in (self.to_q, self.to_k, self.to_v, self.to_out):
            child.reset_state()

    def _split(self, x: np.ndarray) -> np.ndarray:
        b, t, _ = x.shape
        return x.reshape(b, t, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    # -- forward -----------------------------------------------------------
    def forward(self, x: np.ndarray, context: Optional[np.ndarray] = None) -> np.ndarray:
        if not self.is_cross:
            q_full, k_full, v_full = self._project_qkv(x)
        elif context is None:
            raise ValueError(f"cross attention {self.layer_name!r} needs context")
        else:
            q_full = self.to_q(x)
            k_full, v_full = self._context_kv(context)
        q = self._split(q_full)
        k = self._split(k_full)
        v = self._split(v_full)
        # Exact-f32 gating for the activation x activation matmuls: the
        # longest dot product runs over max(head_dim, token count) operands.
        inner = max(self.head_dim, k.shape[2])
        f32_ok = inner * _max_product(self.bits) < (1 << 24)
        dtype = np.float32 if f32_ok else None
        qq = self.q_quant.quantize(q, out_dtype=dtype)
        qk = self.k_quant.quantize(k, out_dtype=dtype)
        qv = self.v_quant.quantize(v, out_dtype=dtype)
        s_int = self._qk_matmul(qq, qk)
        # float(...) keeps the divisor weak (NEP 50) so a float32 s_int stays
        # float32 on the exact-f32 path; bit-identical arithmetic otherwise.
        scores = (
            s_int * (self.q_quant.scale * self.k_quant.scale) / float(np.sqrt(self.head_dim))
        )
        probs = F.softmax(scores, axis=-1)
        qp = self.p_quant.quantize(
            probs, out_dtype=np.float32 if qv.dtype == np.float32 else None
        )
        o_int = self._pv_matmul(qp, qv)
        out = o_int * (self.p_quant.scale * self.v_quant.scale)
        b, h, t, d = out.shape
        merged = out.transpose(0, 2, 1, 3).reshape(b, t, h * d)
        return self.to_out(merged)

    def _project_qkv(self, x: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Self-attention's Q, K and V: one quantize, difference, stats pass
        and GEMM over the stacked weight, then each child's epilogue, trace
        record and forward hooks on its column block - the outputs and
        records of three separate ``QLinear`` forwards, bit for bit."""
        q_in, diff, out_int = self._project(x, self._qkv_weight)
        mode = self._effective_mode(diff)
        stats = None
        if TraceRecorder.current() is not None:
            stats = _linear_stats(q_in, diff)
        outs = []
        for i, child in enumerate((self.to_q, self.to_k, self.to_v)):
            block = out_int[..., i * self.dim : (i + 1) * self.dim]
            out = child._epilogue(block)
            child._record(q_in, diff, block, mode, stats)
            child.run_forward_hooks((x,), out)
            outs.append(out)
        self._keep_state(q_in, out_int)
        return tuple(outs)

    def _context_kv(self, context: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        cached = self._context_cache.get(id(context))
        if cached is not None:
            return cached[1], cached[2]
        k_full = self.to_k(context)
        v_full = self.to_v(context)
        self._context_cache[id(context)] = (context, k_full, v_full)
        return k_full, v_full

    # -- the two activation x activation matmuls ---------------------------
    def _qk_matmul(self, qq: np.ndarray, qk: np.ndarray) -> np.ndarray:
        prev_q = self._prev.get("q")
        prev_k = self._prev.get("k")
        prev_s = self._prev.get("s")
        dq = qq - prev_q if prev_q is not None and prev_q.shape == qq.shape else None
        dk = qk - prev_k if prev_k is not None and prev_k.shape == qk.shape else None
        have_state = prev_s is not None and dq is not None and (self.is_cross or dk is not None)
        mode = self.mode
        if mode is ExecutionMode.TEMPORAL and not have_state:
            mode = ExecutionMode.DENSE
        bk = backends.active()
        kt = qk.transpose(0, 1, 3, 2)
        # The transposed-K views below are intentional: batched matmul eats
        # the stride-swapped trailing axes copy-free, and the backend owns
        # any materialization its blocking wants.
        if mode is ExecutionMode.TEMPORAL:
            if self.is_cross:
                s_int = prev_s + bk.matmul(dq, kt)
            else:
                # Q_t K_t^T = S_{t+1} + Q_t dK^T + dQ K_{t+1}^T
                s_int = (
                    prev_s
                    + bk.matmul(qq, dk.transpose(0, 1, 3, 2))
                    + bk.matmul(dq, prev_k.transpose(0, 1, 3, 2))
                )
        else:
            s_int = bk.matmul(qq, kt)
        if s_int.dtype != np.float64:  # exact-f32 GEMM, f64 state downstream
            s_int = s_int.astype(np.float64)
        self._record_matmul(
            suffix="qk",
            data=qq,
            other=qk,
            out_int=s_int,
            d_data=dq,
            d_other=dk,
            other_is_weight=self.is_cross,
            vpu_out=True,  # softmax + requantization follow
            executed_mode=mode,
        )
        if self.mode is ExecutionMode.TEMPORAL:
            self._prev.update(q=qq, k=qk, s=s_int)
        return s_int

    def _pv_matmul(self, qp: np.ndarray, qv: np.ndarray) -> np.ndarray:
        prev_p = self._prev.get("p")
        prev_v = self._prev.get("v")
        prev_o = self._prev.get("o")
        dp = qp - prev_p if prev_p is not None and prev_p.shape == qp.shape else None
        dv = qv - prev_v if prev_v is not None and prev_v.shape == qv.shape else None
        have_state = prev_o is not None and dp is not None and (self.is_cross or dv is not None)
        mode = self.mode
        if mode is ExecutionMode.TEMPORAL and not have_state:
            mode = ExecutionMode.DENSE
        bk = backends.active()
        if mode is ExecutionMode.TEMPORAL:
            if self.is_cross:
                o_int = prev_o + bk.matmul(dp, qv)
            else:
                # P_t V_t = O_{t+1} + P_t dV + dP V_{t+1}
                o_int = prev_o + bk.matmul(qp, dv) + bk.matmul(dp, prev_v)
        else:
            o_int = bk.matmul(qp, qv)
        if o_int.dtype != np.float64:  # exact-f32 GEMM, f64 state downstream
            o_int = o_int.astype(np.float64)
        self._record_matmul(
            suffix="pv",
            data=qp,
            other=qv,
            out_int=o_int,
            d_data=dp,
            d_other=dv,
            other_is_weight=self.is_cross,
            vpu_out=False,  # output feeds the linear projection directly
            executed_mode=mode,
        )
        if self.mode is ExecutionMode.TEMPORAL:
            self._prev.update(p=qp, v=qv, o=o_int)
        return o_int

    def _record_matmul(
        self,
        suffix: str,
        data: np.ndarray,
        other: np.ndarray,
        out_int: np.ndarray,
        d_data: Optional[np.ndarray],
        d_other: Optional[np.ndarray],
        other_is_weight: bool,
        vpu_out: bool,
        executed_mode: ExecutionMode,
    ) -> None:
        if TraceRecorder.current() is None:
            return  # nobody is listening; skip the stats passes entirely
        b, h, t_data, inner = data.shape
        t_other = other.shape[2]
        macs = b * h * t_data * t_other * inner
        stats_dense = classify(data)
        stats_spatial = _row_diff_stats(_flatten_rows(data))
        if other_is_weight:
            stats_temporal = None if d_data is None else classify(d_data)
            sub_ops = 1
            in_elems = data.size
            weight_elems = other.size
        else:
            # The activation operand counts (undifferenced) in both the dense
            # and the spatial mix: classify it once.
            other_stats = classify(other)
            stats_dense = stats_dense.merge(other_stats)
            stats_spatial = stats_spatial.merge(other_stats)
            if d_data is None or d_other is None:
                stats_temporal = None
            else:
                stats_temporal = classify_many(d_data, d_other)
            sub_ops = 2
            in_elems = data.size + other.size
            weight_elems = 0
        record_step(
            RichLayerStep(
                step_index=_current_step(),
                layer_name=f"{self.layer_name}.{suffix}",
                kind=f"attn_{suffix}",
                macs=int(macs),
                in_elems=int(in_elems),
                out_elems=int(out_int.size),
                weight_elems=int(weight_elems),
                data_elems=int(data.size + (0 if other_is_weight else other.size)),
                stats_dense=stats_dense,
                stats_spatial=stats_spatial,
                stats_temporal=stats_temporal,
                sub_ops_temporal=sub_ops,
                vpu_elems=int(out_int.size) if vpu_out else 0,
                nonlinear_after=vpu_out,
                chained_input=False,
                producer_kind="other",
                executed_mode=executed_mode,
            )
        )

    def extra_repr(self) -> str:
        kind = "cross" if self.is_cross else "self"
        return f"dim={self.dim}, heads={self.num_heads}, kind={kind}, mode={self.mode}"


def _current_step() -> int:
    """The trace step: the announced denoiser-call index (0 when none is
    announced; a ragged session batch records its earliest row's)."""
    step = active_step()
    if step is None:
        return 0
    return step if isinstance(step, int) else int(step.min())


# ---------------------------------------------------------------------------
# model-level utilities
# ---------------------------------------------------------------------------

def quantize_model(
    model: Module,
    bits: int = 8,
    calibration: Optional[Dict[str, float]] = None,
    input_quantizers: Optional[Dict[str, "SymmetricQuantizer"]] = None,
    per_channel_weights: bool = False,
) -> Module:
    """Swap every linear layer / attention for its quantized counterpart.

    ``calibration`` maps qualified layer names to pre-computed input scales
    (see :mod:`repro.quant.calibration`); ``input_quantizers`` maps layer
    names to fully-constructed quantizer objects (e.g. the timestep-clustered
    quantizers of :mod:`repro.quant.tdq`) and takes precedence.  Uncalibrated
    layers freeze their scale on first use (hardware-style "dynamic"
    quantization).  The swap happens in place and ``model`` is returned for
    chaining.

    Self-attention's ``to_q`` / ``to_k`` / ``to_v`` read one tensor and run
    as one projection through one quantizer (see :class:`QAttention`):
    calibration must give the three the same grid, else ``ValueError``.
    """

    def swap(module: Module) -> None:
        for name, child in list(module._modules.items()):
            if isinstance(child, QLayerBase):
                continue
            if isinstance(child, Attention):
                module.register_module(
                    name, QAttention.from_float(child, bits, per_channel_weights)
                )
            elif isinstance(child, Linear):
                module.register_module(
                    name, QLinear.from_float(child, bits, per_channel_weights)
                )
            elif isinstance(child, Conv2d):
                module.register_module(
                    name, QConv2d.from_float(child, bits, per_channel_weights)
                )
            else:
                swap(child)

    swap(model)
    calibration = calibration or {}
    input_quantizers = input_quantizers or {}
    for name, module in model.named_modules():
        if isinstance(module, QLayerBase):
            module.layer_name = name
            quantizer = input_quantizers.get(name)
            if quantizer is not None:
                module.input_quant = quantizer
                continue
            scale = calibration.get(name)
            if scale is not None:
                module.input_quant = SymmetricQuantizer(module.bits, float(scale))
    for name, module in iter_qlayers(model):
        if isinstance(module, QAttention) and not module.is_cross:
            quantizers = [c.input_quant for c in (module.to_q, module.to_k, module.to_v)]
            if len({q.grid() for q in quantizers}) > 1:
                raise ValueError(
                    f"self-attention {name!r}: to_q / to_k / to_v read one "
                    f"tensor but were calibrated to different grids: {quantizers}"
                )
            module.share_projection_quantizer(quantizers[0])
    return model


def iter_qlayers(model: Module):
    """Yield ``(name, qlayer)`` for every quantized layer in the tree."""
    for name, module in model.named_modules():
        if isinstance(module, QLayerBase):
            yield name, module


def reset_model_state(model: Module) -> None:
    """Drop all temporal state (start of a new trajectory)."""
    for _, qlayer in iter_qlayers(model):
        qlayer.reset_state()


def set_model_mode(model: Module, mode: ExecutionMode) -> None:
    """Set the execution mode of every quantized layer."""
    for _, qlayer in iter_qlayers(model):
        qlayer.mode = mode


def remap_model_rows(model: Module, mapping, old_batch: int) -> None:
    """Drop all temporal state; kept only as a stable hook for profilers.

    Serving sessions execute dense and hold no temporal state, so there is
    no row state left to re-align and nothing in the package calls this.
    External tracing harnesses still patch the name, so it stays as an
    alias of :func:`reset_model_state`.
    """
    reset_model_state(model)
