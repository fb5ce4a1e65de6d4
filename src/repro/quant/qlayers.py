"""Quantized layers implementing the Ditto difference-processing algorithm.

Each quantized layer supports three execution paths (paper Section IV):

* **dense** - quantize the input, run the full-bit-width integer operation.
* **temporal** - subtract the previous time step's quantized input, run the
  layer only on the integer difference, and add the previous step's integer
  output back (distributive property; *bit-exact* with the dense path).
* **spatial** - Diffy-style intra-tensor differences between consecutive
  sliding windows / token rows; also bit-exact.

Every forward records a :class:`~repro.core.trace.RichLayerStep` carrying the
operand composition (zero / 4-bit / 8-bit) of *all three* paths, so the
hardware models and Defo can be evaluated post-hoc on a single run.

Attention gets the paper's two algebraic tricks: self-attention temporal
processing uses ``Q_t K_t = Q_{t+1} K_{t+1} + Q_t dK + dQ K_{t+1}`` (two
sub-operations instead of three), and cross-attention treats the constant
context projections K'/V' as weights.
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
    "model_state_nbytes",
]


def _flatten_rows(x: np.ndarray) -> np.ndarray:
    """View ``x`` as ``(rows, features)`` over the trailing dimension."""
    return x.reshape(-1, x.shape[-1])


def _max_product(bits: int) -> int:
    """Worst-case magnitude of one multiply in the difference algebra.

    Quantized values are clipped to |q| <= 2^(bits-1), but *temporal and
    spatial differences* of two such values span up to 2^bits - 1.  Every
    GEMM in the Ditto paths multiplies at most (difference x quantized
    value), so the per-term bound that the float32 exactness gate must
    honour is 2^(2*bits - 1), not 2^(2*(bits-1)).
    """
    return 1 << (2 * bits - 1)


def _remap_rows_array(
    arr: Optional[np.ndarray],
    mapping,
    old_batch: int,
    fill: float = 0.0,
) -> Optional[np.ndarray]:
    """Re-align a cached per-batch-element state array to a new composition.

    ``mapping[new_pos]`` is the old row index that moved to ``new_pos``, or
    ``None`` for a freshly admitted row.  Fresh rows are filled with
    ``fill`` - zero state, by the distributive property the temporal path
    computes exactly the dense result for an all-zero previous step, so an
    admitted row's first "temporal" step is bit-exact with a dense one.

    The leading dimension may be any multiple of ``old_batch`` (classifier-
    free guidance stacks ``[cond; uncond]``); the mapping is applied per
    block.  State whose leading dimension does not tile is dropped (``None``
    - the layer then falls back to one dense step, which is always sound).
    """
    if arr is None:
        return None
    lead = arr.shape[0]
    if old_batch <= 0 or lead % old_batch:
        return None
    reps = lead // old_batch
    new_batch = len(mapping)
    out = np.full((reps * new_batch,) + arr.shape[1:], fill, dtype=arr.dtype)
    for block in range(reps):
        src_base = block * old_batch
        dst_base = block * new_batch
        for pos, src in enumerate(mapping):
            if src is not None:
                out[dst_base + pos] = arr[src_base + src]
    return out


def _nbytes(*arrays) -> int:
    """Total bytes of the given arrays, deduped by identity.

    State fields may alias each other; counting an aliased buffer twice
    would inflate the measured per-row footprint and make the serving pool
    budget refuse batch sizes that actually fit.
    """
    seen = {}
    for a in arrays:
        if isinstance(a, np.ndarray):
            seen[id(a)] = a.nbytes
    return sum(seen.values())


def _spatial_diff_rows(mat: np.ndarray) -> np.ndarray:
    """Difference consecutive rows; the first row stays original (dense)."""
    d = mat.copy()
    if mat.shape[0] > 1:
        d[1:] -= mat[:-1]
    return d


def _diff_scratch_dtype(src_dtype: np.dtype):
    """Storage dtype for spatial-difference scratch buffers.

    Layers on the provably-exact float32 path carry quantized values of at
    most ~2^13 magnitude, so their row differences fit int16 exactly - and
    the bit-width classifier has a 2-byte fast path for that dtype.  The
    float64 route keeps float scratch (values there may come from wider
    quantizers).
    """
    return np.int16 if src_dtype == np.float32 else src_dtype


def _row_diff_stats(mat: np.ndarray) -> BitWidthStats:
    """Stats of Diffy row differencing, ``classify(_spatial_diff_rows(mat))``.

    The token-row matrices this sees (linear / attention operands) are small,
    so one fused scan of a scratch-buffered difference image beats scanning
    the first row and the differences separately.
    """
    if mat.shape[0] <= 1:
        return classify(mat)
    buf = F.scratch_buffer("rowdiff", mat.shape, _diff_scratch_dtype(mat.dtype))
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
        out=F.scratch_buffer(
            "coldiff", diff_shape, _diff_scratch_dtype(cols_t.dtype)
        ),
        casting="unsafe",
    )
    return classify_many(cols_t[:, :, :1], diff)


class QLayerBase(Module):
    """Shared machinery: mode flag, input quantizer, temporal state."""

    is_linear_op = True
    kind = "fc"

    def __init__(self, bits: int = 8) -> None:
        super().__init__()
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

    def _changed_grid_rows(self, q_in: np.ndarray):
        """Which rows' integer grid moved since the cached state was written.

        Returns ``None`` (no change), ``"all"`` (whole-batch change - the
        lockstep TDQ cluster boundary, handled by one dense step exactly as
        before), or a boolean per-row mask (rows at their own timesteps, some
        of which just crossed a cluster boundary - only those rows fall back,
        via zeroed state).
        """
        prev, cur = self._prev_scale, self.input_quant.scale
        if prev is None:
            return None
        prev_arr = isinstance(prev, np.ndarray)
        cur_arr = isinstance(cur, np.ndarray)
        if not prev_arr and not cur_arr:
            return "all" if prev != cur else None
        batch = q_in.shape[0]
        p = prev.reshape(batch) if prev_arr else np.full(batch, prev)
        c = cur.reshape(batch) if cur_arr else np.full(batch, cur)
        mask = p != c  # NaN-filled fresh rows always flag as changed
        if not mask.any():
            return None
        if mask.all():
            return "all"
        return mask

    def _invalidate_rows(self, mask: np.ndarray) -> None:
        """Zero the cached state of ``mask``-ed rows (per-row dense fallback).

        Zero previous input and zero previous output make the temporal path
        compute ``0 + (q_in - 0) @ W`` - bit-exact with the dense product -
        so invalidation never needs a whole-batch mode switch.
        """
        self._prev_q_in[mask] = 0
        self._prev_out_int[mask] = 0

    def _temporal_diff(self, q_in: np.ndarray) -> Optional[np.ndarray]:
        prev = self._prev_q_in
        if prev is None or prev.shape != q_in.shape:
            return None
        # Timestep-clustered quantization (repro.quant.tdq) changes the
        # integer grid at cluster boundaries: the cached state was produced
        # under another scale, so differencing against it would be wrong.
        # Ditto then re-runs one dense step, exactly as the paper's synergy
        # with Q-Diffusion/TDQ requires.  With per-row step indices only the
        # rows that crossed a boundary are invalidated (zeroed state).
        changed = self._changed_grid_rows(q_in)
        if changed is not None:
            if isinstance(changed, str):  # "all"
                return None
            self._invalidate_rows(changed)
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

    def remap_rows(self, mapping, old_batch: int) -> None:
        """Re-align cached temporal state to a new batch composition.

        See :func:`remap_model_rows`.  Fresh rows (``None`` entries) get zero
        state; a fresh row's ``_prev_scale`` is NaN so any grid comparison
        flags it (harmlessly re-zeroing already-zero rows).
        """
        d = self.__dict__
        d["_prev_q_in"] = _remap_rows_array(self._prev_q_in, mapping, old_batch)
        d["_prev_out_int"] = _remap_rows_array(
            self._prev_out_int, mapping, old_batch
        )
        if isinstance(self._prev_scale, np.ndarray):
            d["_prev_scale"] = _remap_rows_array(
                self._prev_scale, mapping, old_batch, fill=np.nan
            )

    def state_nbytes(self) -> int:
        """Bytes of per-batch-element temporal state currently held.

        ``_prev_scale`` is a scalar for lockstep batches but becomes a
        per-row float64 array under continuous batching; ``_nbytes``
        ignores the scalar form, so counting it here is free in lockstep
        mode and keeps the serving pool budget honest per row.
        """
        return _nbytes(self._prev_q_in, self._prev_out_int, self._prev_scale)


def _quantize_weight(weight: np.ndarray, bits: int, per_channel: bool):
    """Weight quantization: per-tensor or per-output-channel scales.

    Q-Diffusion quantizes weights per output channel; Ditto is agnostic
    because weights are static - only the *activation* grid must be shared
    across steps.  Per-channel scales tighten the weight grid and therefore
    the end accuracy, at zero cost to difference processing.
    """
    qmin, qmax = qrange(bits)
    if per_channel:
        flat = weight.reshape(weight.shape[0], -1)
        peaks = np.max(np.abs(flat), axis=1)
        scales = np.where(peaks > 0.0, peaks, 1.0) / qmax
        shaped = scales.reshape((-1,) + (1,) * (weight.ndim - 1))
        q_weight = np.clip(np.rint(weight / shaped), qmin, qmax)
        return q_weight, scales
    quantizer = SymmetricQuantizer(bits)
    quantizer.observe(weight)
    quantizer.freeze()
    return quantizer.quantize(weight), quantizer.scale


class QLinear(QLayerBase):
    """Quantized fully-connected layer with difference processing."""

    kind = "fc"

    def __init__(
        self,
        weight: np.ndarray,
        bias: Optional[np.ndarray],
        bits: int = 8,
        per_channel: bool = False,
    ) -> None:
        super().__init__(bits)
        self.out_features, self.in_features = weight.shape
        self.per_channel = per_channel
        self.q_weight, self.weight_scale = _quantize_weight(
            weight, bits, per_channel
        )
        self.bias = None if bias is None else np.array(bias, dtype=np.float64)
        # See QConv2d: the f32 integer GEMM is exact while every partial dot
        # product stays inside float32's 2^24 exact-integer range.
        self._use_f32 = self.in_features * _max_product(bits) < (1 << 24)
        self._q_weight_f32 = (
            self.q_weight.astype(np.float32) if self._use_f32 else None
        )

    @classmethod
    def from_float(
        cls, layer: Linear, bits: int = 8, per_channel: bool = False
    ) -> "QLinear":
        bias = layer.bias.data if layer.bias is not None else None
        return cls(layer.weight.data, bias, bits, per_channel)

    def forward(self, x: np.ndarray) -> np.ndarray:
        q_in = self.input_quant.quantize(
            x, out_dtype=np.float32 if self._use_f32 else None
        )
        diff = self._temporal_diff(q_in)
        mode = self._effective_mode(diff)
        q_weight = self._q_weight_f32 if self._use_f32 else self.q_weight
        bk = backends.active()
        if mode is ExecutionMode.TEMPORAL:
            # float64 + float32 upcasts exactly; the sum runs in float64.
            out_int = self._prev_out_int + bk.linear(diff, q_weight)
        else:
            # Dense and spatial paths share arithmetic: the spatial path's
            # row-cumulative reconstruction telescopes to the plain matmul.
            out_int = bk.linear(q_in, q_weight)
            if out_int.dtype != np.float64:
                out_int = out_int.astype(np.float64)
        # weight_scale is a scalar (per-tensor) or an (out,) vector
        # (per-channel); both broadcast over the trailing output dim.
        out = out_int * (self.input_quant.scale * self.weight_scale)
        if self.bias is not None:
            out += self.bias
        self._record(q_in, diff, out_int)
        # Plain state fields: skip Module.__setattr__'s registration checks.
        d = self.__dict__
        d["_prev_q_in"] = q_in
        d["_prev_out_int"] = out_int
        d["_prev_scale"] = self.input_quant.scale
        return out

    def _record(
        self, q_in: np.ndarray, diff: Optional[np.ndarray], out_int: np.ndarray
    ) -> None:
        if TraceRecorder.current() is None:
            return  # nobody is listening; skip the stats passes entirely
        rows = _flatten_rows(q_in)
        macs = rows.shape[0] * self.in_features * self.out_features
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
                stats_spatial=_row_diff_stats(rows),
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
        self.q_weight, self.weight_scale = _quantize_weight(
            weight, bits, per_channel
        )
        self.bias = None if bias is None else np.array(bias, dtype=np.float64)
        # Single-precision integer GEMM, used only when provably exact: every
        # partial dot product must stay inside float32's 2^24 exact-integer
        # range for the worst-case operands (see _max_product - temporal
        # *differences* span twice the quantized range).  Then the f32 kernel
        # is bit-exact while halving unfold/stat memory traffic and doubling
        # GEMM rate.
        dot_len = self.in_channels * self.kernel_size * self.kernel_size
        self._use_f32 = dot_len * _max_product(bits) < (1 << 24)
        self._q_weight_f32 = (
            self.q_weight.astype(np.float32) if self._use_f32 else None
        )
        self._cols_dtype = np.dtype(np.float32 if self._use_f32 else np.float64)

    @classmethod
    def from_float(
        cls, layer: Conv2d, bits: int = 8, per_channel: bool = False
    ) -> "QConv2d":
        bias = layer.bias.data if layer.bias is not None else None
        return cls(
            layer.weight.data, bias, layer.stride, layer.padding, bits, per_channel
        )

    def _unfold(self, x: np.ndarray):
        """Blocked transposed im2col of ``x`` into the shared scratch pool.

        Every caller consumes the columns (GEMM or spatial stats) before the
        next unfold, so one pooled buffer per shape serves all conv layers.
        """
        n, _, h, w = x.shape
        out_h = (h + 2 * self.padding - self.kernel_size) // self.stride + 1
        out_w = (w + 2 * self.padding - self.kernel_size) // self.stride + 1
        dot_len = self.in_channels * self.kernel_size * self.kernel_size
        return backends.active().im2col_t(
            x,
            self.kernel_size,
            self.stride,
            self.padding,
            out=F.scratch_buffer(
                "qconv-cols", (n, dot_len, out_h * out_w), self._cols_dtype
            ),
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        # Values are exact small integers; float32 halves the memory traffic
        # of every downstream scan (diff, stats, unfold).
        q_in = self.input_quant.quantize(
            x, out_dtype=np.float32 if self._use_f32 else None
        )
        diff = self._temporal_diff(q_in)
        temporal = self._effective_mode(diff) is ExecutionMode.TEMPORAL
        # Temporal mode unfolds the input-sized difference, not the input:
        # im2col is linear and the zero padding border unfolds to zero in
        # both operands, so conv(im2col(q - prev_q)) == conv(q) - conv(prev_q)
        # exactly (the f32 gate already bounds difference operands).
        cols, out_hw = self._unfold(diff if temporal else q_in)
        q_weight = self._q_weight_f32 if self._use_f32 else self.q_weight
        conv = backends.active().conv2d_from_cols_t(cols, q_weight, out_hw)
        if temporal:
            # float64 + float32 upcasts exactly; the sum runs in float64.
            out_int = self._prev_out_int + conv
        else:
            out_int = conv if conv.dtype == np.float64 else conv.astype(np.float64)
        w_scale = self.weight_scale
        if self.per_channel:
            w_scale = np.asarray(w_scale).reshape(1, -1, 1, 1)
        out = out_int * (self.input_quant.scale * w_scale)
        if self.bias is not None:
            out += self.bias.reshape(1, -1, 1, 1)
        self._record(q_in, diff, out_int, None if temporal else cols)
        # Plain state fields: skip Module.__setattr__'s registration checks.
        d = self.__dict__
        d["_prev_q_in"] = q_in
        d["_prev_out_int"] = out_int
        d["_prev_scale"] = self.input_quant.scale
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
        # windows, i.e. consecutive *positions* of the transposed im2col
        # matrix - reused from a dense forward; a temporal forward unfolded
        # the difference, so the input is unfolded here (GEMM already done).
        if cols is None:
            cols, _ = self._unfold(q_in)
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
                stats_spatial=_cols_spatial_stats_t(cols),
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

    The projection layers become independent :class:`QLinear` children; this
    class handles the two activation-by-activation matmuls.  For cross
    attention the context projections are computed once and cached - K'/V'
    are constant across time steps (paper Section IV-A).
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
        self.to_q = QLinear.from_float(attn.to_q, bits, per_channel)
        self.to_k = QLinear.from_float(attn.to_k, bits, per_channel)
        self.to_v = QLinear.from_float(attn.to_v, bits, per_channel)
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

    # -- state -----------------------------------------------------------
    def reset_state(self) -> None:
        super().reset_state()
        self._prev.clear()
        self._context_cache.clear()
        for child in (self.to_q, self.to_k, self.to_v, self.to_out):
            child.reset_state()

    def remap_rows(self, mapping, old_batch: int) -> None:
        # The projection QLinears are remapped by the model-level walk (they
        # are registered child modules); only the attention-matmul state and
        # the context K'/V' cache are handled here.  Cached K'/V' rows are
        # all identical (conditioning is tiled from one sample), so the cache
        # stays valid whenever the context object - keyed by identity and
        # memoized per batch size in the pipeline - is reused.
        super().remap_rows(mapping, old_batch)
        for key in list(self._prev):
            remapped = _remap_rows_array(self._prev[key], mapping, old_batch)
            if remapped is None:
                del self._prev[key]
            else:
                self._prev[key] = remapped

    def state_nbytes(self) -> int:
        total = super().state_nbytes() + _nbytes(*self._prev.values())
        for _, k_full, v_full in self._context_cache.values():
            total += _nbytes(k_full, v_full)
        return total

    def _split(self, x: np.ndarray) -> np.ndarray:
        b, t, _ = x.shape
        return x.reshape(b, t, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    # -- forward -----------------------------------------------------------
    def forward(self, x: np.ndarray, context: Optional[np.ndarray] = None) -> np.ndarray:
        if self.is_cross and context is None:
            raise ValueError(f"cross attention {self.layer_name!r} needs context")
        q_full = self.to_q(x)
        if self.is_cross:
            k_full, v_full = self._context_kv(context)
        else:
            k_full = self.to_k(x)
            v_full = self.to_v(x)
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
        )
        self._prev["q"] = qq
        self._prev["k"] = qk
        self._prev["s"] = s_int
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
        )
        self._prev["p"] = qp
        self._prev["v"] = qv
        self._prev["o"] = o_int
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
    ) -> None:
        if TraceRecorder.current() is None:
            return  # nobody is listening; skip the stats passes entirely
        b, h, t_data, inner = data.shape
        t_other = other.shape[2]
        macs = b * h * t_data * t_other * inner
        if other_is_weight:
            stats_dense = classify(data)
            stats_temporal = None if d_data is None else classify(d_data)
            sub_ops = 1
            in_elems = data.size
            weight_elems = other.size
        else:
            stats_dense = classify_many(data, other)
            if d_data is None or d_other is None:
                stats_temporal = None
            else:
                stats_temporal = classify_many(d_data, d_other)
            sub_ops = 2
            in_elems = data.size + other.size
            weight_elems = 0
        token_rows = data.reshape(-1, data.shape[-1])
        stats_spatial = _row_diff_stats(token_rows)
        if not other_is_weight:
            stats_spatial = stats_spatial.merge(classify(other))
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
                executed_mode=self.mode,
            )
        )

    def extra_repr(self) -> str:
        kind = "cross" if self.is_cross else "self"
        return f"dim={self.dim}, heads={self.num_heads}, kind={kind}, mode={self.mode}"


def _current_step() -> int:
    recorder = TraceRecorder.current()
    return recorder.step_index if recorder is not None else 0


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
                module.input_quant.scale = float(scale)
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
    """Re-align every layer's temporal state to a new batch composition.

    ``mapping`` lists, for each row of the *new* batch, the old row index it
    continues (or ``None`` for a freshly admitted row).  Continuing rows keep
    their cached ``_prev_*`` state - their next temporal step differences
    against exactly the tensors their own previous step produced - while
    fresh rows start from zero state, which the difference algebra turns
    into a bit-exact dense first step.  This is the swap primitive behind
    continuous batching (:class:`repro.core.session.EngineSession`).
    """
    for _, qlayer in iter_qlayers(model):
        qlayer.remap_rows(mapping, old_batch)


def model_state_nbytes(model: Module) -> int:
    """Total bytes of cached temporal state across all quantized layers."""
    return sum(qlayer.state_nbytes() for _, qlayer in iter_qlayers(model))
