"""Quantized layers implementing the Ditto difference-processing algorithm.

Each quantized layer supports three execution paths (paper Section IV):

* **dense** - quantize the input, run the full-bit-width integer operation.
* **temporal** - subtract the previous time step's quantized input, run the
  layer only on the integer difference, and add the previous step's integer
  output back (distributive property; *bit-exact* with the dense path).
* **spatial** - Diffy-style intra-tensor differences between consecutive
  sliding windows / token rows; also bit-exact.

On the host every mode gives the same bits (the zero-state algebra,
``docs/contracts.md``), and the accelerator's saving is modelled from the
trace by :mod:`repro.hw`, not realised here.  So instrumented runs record
temporal and execute dense: a *recording* layer (``record_temporal``) holds
only the operands it differences (``_prev_q_in`` / ``_prev_scale``,
attention's ``q`` / ``k`` / ``p`` / ``v``), narrowed once to int16, takes
its differences int16 - int16 for classification and runs the dense GEMM.
Only a TEMPORAL layer - the executor behind the exactness tests and
``--verify``'s references - holds its operands in the GEMM's float dtype,
because it multiplies their differences, and also holds its integer
outputs (``_prev_out_int``, attention's ``s`` / ``o``).  Any other layer is
stateless.  A layer with no state yet executes dense and records no
temporal stats.

Every forward records one trace record (a
:class:`~repro.core.trace.RichLayerStep`'s fields) carrying the operand
composition (zero / 4-bit / 8-bit) of *all three* paths, so the hardware
models and Defo can be evaluated post-hoc on a single run.  One classify
pass per record buckets them (:func:`_step_stats`).

Attention gets the paper's two algebraic tricks: self-attention temporal
processing uses ``Q_t K_t = Q_{t+1} K_{t+1} + Q_t dK + dQ K_{t+1}`` (two
sub-operations instead of three), and cross-attention treats the constant
context projections K'/V' as weights.

Self-attention's Q/K/V projections read the same tensor through one shared
input quantizer, so they run as **one projection**: one quantize, one
temporal difference, one set of dense / spatial / temporal stats and one
GEMM against the three weights stacked as row blocks of one
``(3*dim, in)`` array; each block then gets its own projection's trace
record, bit-identical to three separate forwards.  The epilogue output is
quantized for the attention products in one pass too, by the q / k / v
scales as one ``(3*dim,)`` vector.  The attention
layer holds that projection's temporal state; ``to_q`` / ``to_k`` /
``to_v`` hold none.

Weight layout: a :class:`QLinear` stores its integer weight once,
C-contiguous ``(out, in)``, and the GEMM runs weight-first
(``backends.linear``), reading it in storage order.  Self-attention's
``to_q`` / ``to_k`` / ``to_v`` weights are row blocks of the stacked
array, so no weight is stored twice.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..core.bitwidth import BitWidthStats, classify, classify_many
from ..core.modes import ExecutionMode
from ..core.trace import TraceRecorder, record_step
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


def _exact_f32(dot_len: int, bits: int) -> bool:
    """Whether a ``dot_len``-term integer dot product is exact in float32:
    every partial sum of worst-case products stays inside 2^24."""
    return dot_len * _max_product(bits) < (1 << 24)


_F32 = np.dtype(np.float32)


# Operands that are only classified are int16 throughout: a quantized value
# spans |q| <= 2^(bits-1) and a difference of two |d| <= 2^bits - 1 <= 32767
# (QLayerBase caps ``bits`` at 15), and int16 is the dtype classify reads
# without a narrowing copy.  A recording layer holds its operands narrowed
# once (``_hold``), so its differences are int16 - int16.
_I16 = np.dtype(np.int16)


def _difference(cur: np.ndarray, prev: np.ndarray, tag: str) -> np.ndarray:
    """``cur - prev`` for the temporal executor, in ``cur``'s dtype (the
    GEMM's).  It is consumed within this forward, before any other layer
    runs, so it lives in the shared per-thread scratch pool under ``tag``."""
    return np.subtract(cur, prev, out=F.scratch_buffer(tag, cur.shape, cur.dtype))


def _step_stats(data, prev_data=None, other=None, prev_other=None, rows=True):
    """``(dense, spatial, temporal)`` stats of one layer step, in one pass.

    The operands are written into the slots of one pooled int16 buffer and
    classified by range (``classify(buf, ranges=...)``)::

        [ row diffs of data | other | data | data - prev | other - prev ]
        '----- spatial -----------'
                           '--- dense ----'
                                           '------ temporal ------------'

    ``data`` is the operand whose token rows are differenced (Diffy: the
    first row stays dense, the rest are consecutive-row differences over
    the trailing feature axis).  ``other`` is self-attention's second
    activation operand, which counts undifferenced in the dense and the
    spatial mix alike.  ``rows=False`` (a conv: its spatial stats come from
    its unfold) drops the row slot and returns spatial ``None``; temporal
    is ``None`` without the held operands.  The differences read the int16
    slots, so a recording layer's int16 operands difference int16 - int16.
    """
    n_data, n_other = data.size, (0 if other is None else other.size)
    lead = n_data if rows else 0
    start = lead + n_other  # the data slot
    temporal = prev_data is not None and (other is None or prev_other is not None)
    size = start + n_data + (n_data + n_other if temporal else 0)
    buf = F.scratch_buffer("step-stats", (size,), _I16)
    data_slot = buf[start : start + n_data].reshape(data.shape)
    np.copyto(data_slot, data, casting="unsafe")
    if other is not None:
        other_slot = buf[lead:start].reshape(other.shape)
        np.copyto(other_slot, other, casting="unsafe")
    ranges = [(lead, start + n_data)]
    if rows:
        src = _flatten_rows(data_slot)
        diffs = buf[:n_data].reshape(src.shape)
        diffs[:1] = src[:1]
        np.subtract(src[1:], src[:-1], out=diffs[1:])
        ranges.append((0, start))
    if temporal:
        end = start + 2 * n_data
        np.subtract(
            data_slot, prev_data,
            out=buf[start + n_data : end].reshape(data.shape), casting="unsafe",
        )
        if other is not None:
            np.subtract(
                other_slot, prev_other,
                out=buf[end:].reshape(other.shape), casting="unsafe",
            )
        ranges.append((start + n_data, size))
    stats = classify(buf, ranges=ranges)
    return (
        stats[0],
        stats[1] if rows else None,
        stats[-1] if temporal else None,
    )


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
        self._set_flags(ExecutionMode.DENSE, False)
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

    # -- mode flags ----------------------------------------------------------
    # Every forward reads ``mode`` and ``record_temporal`` through two flags
    # derived when either is set: ``_executes_temporal`` and ``_holds_state``
    # (TEMPORAL or recording), so a plain dense forward checks one flag.
    def _set_flags(self, mode: ExecutionMode, record_temporal: bool) -> None:
        d = self.__dict__
        d["_mode"], d["_record_temporal"] = mode, record_temporal
        d["_executes_temporal"] = mode is ExecutionMode.TEMPORAL
        d["_holds_state"] = d["_executes_temporal"] or bool(record_temporal)

    @property
    def mode(self) -> ExecutionMode:
        return self._mode

    @mode.setter
    def mode(self, mode: ExecutionMode) -> None:
        self._set_flags(mode, self._record_temporal)

    @property
    def record_temporal(self) -> bool:
        return self._record_temporal

    @record_temporal.setter
    def record_temporal(self, record_temporal: bool) -> None:
        self._set_flags(self._mode, record_temporal)

    def _hold(self, q: np.ndarray) -> np.ndarray:
        """Quantized operand ``q`` as this layer holds and classifies it:
        narrowed once to int16 by a recording layer (exact, see
        :func:`_step_stats`), as is by the temporal executor, which
        multiplies its differences, and by a stateless layer."""
        if self._holds_state and not self._executes_temporal:
            return q.astype(_I16)
        return q

    def _keep_state(self, q_in: np.ndarray, acc: np.ndarray) -> np.ndarray:
        """Hold this step's operands for the next step (``_holds_state``
        layers only; the caller checks); returns the held input.

        A recording layer holds the input it differences, as int16, and its
        scale; a TEMPORAL layer holds the input as is and also the integer
        output its next step adds the difference's product to, as
        contiguous float64 whatever the dtype and layout of the accumulator
        ``acc``.  Any other layer is stateless, so plain runs and serving
        sessions carry no ``_prev_*`` tensors.  Plain state fields: skip
        Module.__setattr__'s checks.
        """
        d = self.__dict__
        if self._executes_temporal:
            d["_prev_out_int"] = np.ascontiguousarray(acc, dtype=np.float64)
        held = d["_prev_q_in"] = self._hold(q_in)
        d["_prev_scale"] = self.input_quant.scale
        return held

    def _epilogue(self, acc: np.ndarray) -> np.ndarray:
        """``acc * (s_in * s_w) + bias`` in float64, straight from the
        integer accumulator ``acc`` (the GEMM's float32 or float64, any
        layout): float32 -> float64 is exact, so the products are those of
        a converted copy.  ``_epi_scale`` / ``_epi_bias`` are the weight
        scale and bias shaped at construction to broadcast over the output;
        the output is C-contiguous whatever ``acc``'s layout (a linear's is
        the weight-first GEMM's transposed view)."""
        out = np.multiply(
            acc, self.input_quant.scale * self._epi_scale, dtype=np.float64, order="C"
        )
        if self._epi_bias is not None:
            out += self._epi_bias
        return out

    def _held_input(self, q_in: np.ndarray) -> Optional[np.ndarray]:
        """The held input ``q_in`` differences against, or None."""
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
        return prev

    def _project(self, x: np.ndarray, q_weight: np.ndarray):
        """Integer linear projection of ``x`` against ``q_weight`` (out, in).

        Quantizes with this layer's input quantizer, finds its held state
        and runs the one GEMM, on the difference when executing temporal;
        returns ``(q_in, prev, out_int)``: ``prev`` the held input (None
        when there is none to difference), ``out_int`` the GEMM's
        ``(..., out)`` accumulator view (float64 once a temporal step adds
        the held output).  :class:`QLinear`
        projects through its own weight; self-attention projects Q/K/V at
        once through the stacked weight, holding the state itself (see
        :class:`QAttention`).
        """
        # The weight is stored in the dtype its GEMM runs (the exact-f32
        # gate); quantized values are exact small integers, so a float32
        # q_in halves the traffic of every downstream scan.
        q_in = self.input_quant.quantize(
            x, out_dtype=_F32 if q_weight.dtype == _F32 else None
        )
        prev = self._held_input(q_in)
        bk = backends.active()
        if prev is not None and self._executes_temporal:
            diff = _difference(q_in, prev, "temporal-diff")
            # float64 + float32 upcasts exactly; the sum runs in float64.
            out_int = self._prev_out_int + bk.linear(diff, q_weight)
        else:
            # Dense and spatial paths share arithmetic: the spatial path's
            # row-cumulative reconstruction telescopes to the plain matmul.
            out_int = bk.linear(q_in, q_weight)
        return q_in, prev, out_int


def _quantize_weight(
    weight: np.ndarray, bits: int, per_channel: bool, out: np.ndarray
):
    """Weight quantization: per-tensor or per-output-channel scales.

    Q-Diffusion quantizes weights per output channel; Ditto is agnostic
    because weights are static - only the *activation* grid must be shared
    across steps.  Per-channel scales tighten the weight grid and therefore
    the end accuracy, at zero cost to difference processing.

    The integer weight is written into ``out`` (``weight``'s shape, the
    dtype the layer's GEMM runs): the cast rides on the one copy out of the
    rounding pass.  No clip pass:
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
    q = np.divide(weight, divisor, dtype=np.float64)
    np.rint(q, out=q)
    out[...] = q
    return out, scales


def _linear_gemm_dtype(in_features: int, bits: int) -> np.dtype:
    """The dtype a linear layer's integer GEMM runs in (see QConv2d): f32
    while every partial dot product stays inside float32's 2^24
    exact-integer range, else f64."""
    return np.dtype(np.float32 if _exact_f32(in_features, bits) else np.float64)


class QLinear(QLayerBase):
    """Quantized fully-connected layer with difference processing.

    ``storage``, when given, is the C-contiguous ``(out, in)`` array the
    integer weight is written into - self-attention passes row blocks of
    its stacked Q/K/V weight; by default the layer allocates its own.
    """

    kind = "fc"

    def __init__(
        self,
        weight: np.ndarray,
        bias: Optional[np.ndarray],
        bits: int = 8,
        per_channel: bool = False,
        storage: Optional[np.ndarray] = None,
    ) -> None:
        super().__init__(bits)
        self.out_features, self.in_features = weight.shape
        self.per_channel = per_channel
        dtype = _linear_gemm_dtype(self.in_features, bits)
        self._use_f32 = dtype == np.float32
        if storage is None:
            storage = np.empty(weight.shape, dtype)
        # One integer weight copy, C-contiguous (out, in) in the dtype this
        # layer's GEMM runs.
        self.q_weight, self.weight_scale = _quantize_weight(
            weight, bits, per_channel, out=storage
        )
        self.bias = None if bias is None else np.array(bias, dtype=np.float64)
        # weight_scale is a scalar (per-tensor) or an (out,) vector
        # (per-channel); both broadcast over the trailing output dim.
        self._epi_scale, self._epi_bias = self.weight_scale, self.bias

    @classmethod
    def from_float(
        cls,
        layer: Linear,
        bits: int = 8,
        per_channel: bool = False,
        storage: Optional[np.ndarray] = None,
    ) -> "QLinear":
        bias = layer.bias.data if layer.bias is not None else None
        return cls(layer.weight.data, bias, bits, per_channel, storage)

    def forward(self, x: np.ndarray) -> np.ndarray:
        q_in, prev, acc = self._project(x, self.q_weight)
        out = self._epilogue(acc)
        if self._holds_state:
            q_in = self._keep_state(q_in, acc)
        self._record(q_in, prev, out)
        return out

    def _record(
        self,
        q_in: np.ndarray,
        prev: Optional[np.ndarray],
        out: np.ndarray,
        stats: Optional[tuple] = None,
    ) -> None:
        """Record this projection's step: ``q_in`` the input as held,
        ``prev`` the held input it differences against, ``out`` gives the
        output shape.  ``stats`` (see :func:`_step_stats`) is passed in when
        another projection of the same operand already computed it."""
        if TraceRecorder.current() is None:
            return  # nobody is listening; skip the stats passes entirely
        dense, spatial, temporal = stats or _step_stats(q_in, prev)
        macs = q_in.size * self.out_features
        record_step(
            step_index=_current_step(),
            layer_name=self.layer_name,
            kind=self.kind,
            macs=macs,
            in_elems=q_in.size,
            out_elems=out.size,
            weight_elems=self.q_weight.size,
            data_elems=q_in.size,
            stats_dense=dense,
            stats_spatial=spatial,
            stats_temporal=temporal,
            sub_ops_temporal=1,
            vpu_elems=out.size if self.nonlinear_after else 0,
            nonlinear_after=self.nonlinear_after,
            chained_input=self.chained_input,
            producer_kind=self.producer_kind,
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
        # GEMM rate.  A stride-1 conv runs one GEMM of C*k terms per row-shift
        # slice (see _conv), so it gates per slice; when the whole C*k*k dot
        # product could leave float32's exact range, its k exact partials
        # are summed in float64 (_sum_f64).
        k = self.kernel_size
        dot_len = self.in_channels * k * k
        self._use_f32 = _exact_f32(dot_len // k if stride == 1 else dot_len, bits)
        self._sum_f64 = not _exact_f32(dot_len, bits)
        self._cols_dtype = np.dtype(np.float32 if self._use_f32 else np.float64)
        # One integer weight copy, in the dtype this layer's GEMM runs.
        self.q_weight, self.weight_scale = _quantize_weight(
            weight, bits, per_channel, out=np.empty(weight.shape, self._cols_dtype)
        )
        self.bias = None if bias is None else np.array(bias, dtype=np.float64)
        # The epilogue's weight scale and bias, shaped to broadcast over NCHW.
        self._epi_scale = self.weight_scale
        if per_channel:
            self._epi_scale = self.weight_scale.reshape(1, -1, 1, 1)
        self._epi_bias = None if bias is None else self.bias.reshape(1, -1, 1, 1)
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
        dropped by the returned view.  Each slice GEMM is exact by the
        per-slice gate, and the k-way sum runs in float64 unless the whole
        dot product is inside the gate's bound too, so the sum is exact.
        """
        bk = backends.active()
        if self.stride != 1:
            return bk.conv2d_from_cols_t(cols, self.q_weight, out_hw)
        out_h, out_w = out_hw
        wp = out_w + self.kernel_size - 1
        span = out_h * wp
        conv = bk.matmul(self._w_rows[0], cols[:, :, :span])
        if self._sum_f64:
            conv = conv.astype(np.float64, copy=False)
        for ki in range(1, self.kernel_size):
            conv += bk.matmul(self._w_rows[ki], cols[:, :, ki * wp : ki * wp + span])
        return conv.reshape(cols.shape[0], self.out_channels, out_h, wp)[..., :out_w]

    def forward(self, x: np.ndarray) -> np.ndarray:
        # Values are exact small integers; float32 halves the memory traffic
        # of every downstream scan (diff, stats, unfold).
        q_in = self.input_quant.quantize(
            x, out_dtype=_F32 if self._use_f32 else None
        )
        prev = self._held_input(q_in)
        temporal = prev is not None and self._executes_temporal
        # Temporal mode unfolds the input-sized difference, not the input:
        # the unfold is linear and the zero padding border unfolds to zero
        # in both operands, so conv(unfold(q - prev_q)) == conv(q) -
        # conv(prev_q) exactly (the f32 gate already bounds differences).
        cols, out_hw = self._unfold(
            _difference(q_in, prev, "temporal-diff") if temporal else q_in
        )
        acc = self._conv(cols, out_hw)
        if temporal:
            # float64 + float32 upcasts exactly; the sum runs in float64.
            acc = self._prev_out_int + acc
        out = self._epilogue(acc)
        if self._holds_state:
            q_in = self._keep_state(q_in, acc)
        self._record(q_in, prev, out, None if temporal else cols)
        return out

    def _record(
        self,
        q_in: np.ndarray,
        prev: Optional[np.ndarray],
        out: np.ndarray,
        cols: Optional[np.ndarray],
    ) -> None:
        """Record this conv's step: ``q_in`` the input as held, ``prev`` the
        held input it differences against, ``cols`` the dense forward's
        unfold (None after a temporal forward)."""
        if TraceRecorder.current() is None:
            return  # nobody is listening; skip the stats passes entirely
        # Spatial (Diffy) differences live between consecutive sliding
        # windows - reused from a dense forward's unfold; the temporal
        # executor unfolded the difference, so the input (held as is) is
        # unfolded here (the GEMM is already done).
        if cols is None:
            cols, _ = self._unfold(q_in)
        if self.stride == 1:
            spatial = _rows_spatial_stats(cols, self.kernel_size, out.shape[2:])
        else:
            spatial = _cols_spatial_stats_t(cols)
        dense, _, temporal = _step_stats(q_in, prev, rows=False)
        dot_len = self.in_channels * self.kernel_size * self.kernel_size
        record_step(
            step_index=_current_step(),
            layer_name=self.layer_name,
            kind=self.kind,
            macs=out.size * dot_len,
            in_elems=q_in.size,
            out_elems=out.size,
            weight_elems=self.q_weight.size,
            data_elems=q_in.size,
            stats_dense=dense,
            stats_spatial=spatial,
            stats_temporal=temporal,
            sub_ops_temporal=1,
            vpu_elems=out.size if self.nonlinear_after else 0,
            nonlinear_after=self.nonlinear_after,
            chained_input=self.chained_input,
            producer_kind=self.producer_kind,
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
    are row blocks of one stacked C-contiguous ``(3*dim, in)`` weight.  This
    layer holds the shared projection's temporal state (``_prev_q_in`` /
    ``_prev_out_int`` / ``_prev_scale``, over all three blocks) and it runs
    in this layer's mode; the three children hold no state.

    The two matmuls' state lives in ``_prev``: a recording layer holds the
    quantized operands ``q`` / ``k`` / ``p`` / ``v``; the temporal executor
    also holds the integer products ``s`` (QK) and ``o`` (PV).
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
            # The shared projection's weight: Q, K and V row blocks of one
            # (3*dim, in) array, written in place by each child's weight
            # quantization.
            in_features = attn.to_q.in_features
            self._qkv_weight = np.empty(
                (3 * self.dim, in_features), _linear_gemm_dtype(in_features, bits)
            )
            blocks = [self._qkv_weight[i * self.dim : (i + 1) * self.dim] for i in range(3)]
        self.to_q, self.to_k, self.to_v = (
            QLinear.from_float(proj, bits, per_channel, storage=block)
            for proj, block in zip(projections, blocks)
        )
        if not self.is_cross:
            self.share_projection_quantizer(self.to_q.input_quant)
            # The shared projection's epilogue: the three children's weight
            # scales and biases as (3*dim,) vectors, so one multiply-add
            # dequantizes Q, K and V, each a column block of the result.
            children = (self.to_q, self.to_k, self.to_v)
            self._epi_scale = np.concatenate(
                [np.broadcast_to(c.weight_scale, (self.dim,)) for c in children]
            )
            self._epi_bias = None
            if any(c.bias is not None for c in children):
                self._epi_bias = np.concatenate(
                    [np.zeros(self.dim) if c.bias is None else c.bias for c in children]
                )
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
        # The fused Q/K/V output's quantizer (see _qkv_quantizer) and the
        # q / k / v scales it was built from.
        self._qkv_scales: Optional[tuple] = None
        self._qkv_quant: Optional[SymmetricQuantizer] = None
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
            qkv = self._project_qkv(x)
            dtype = self._operand_dtype(x.shape[1])
            q_qkv = self._qkv_quantizer(qkv).quantize(qkv, out_dtype=dtype)
            qq, qk, qv = self._split_qkv(q_qkv)
            held_q, held_k, held_v = self._split_qkv(self._hold(q_qkv))
        elif context is None:
            raise ValueError(f"cross attention {self.layer_name!r} needs context")
        else:
            q_full = self.to_q(x)
            k_full, v_full = self._context_kv(context)
            dtype = self._operand_dtype(k_full.shape[1])
            qq, qk, qv = (
                quant.quantize(self._split(t), out_dtype=dtype)
                for quant, t in (
                    (self.q_quant, q_full), (self.k_quant, k_full), (self.v_quant, v_full)
                )
            )
            # K'/V' are constant weights: never differenced, held as is.
            held_q, held_k, held_v = self._hold(qq), qk, qv
        s_acc = self._qk_matmul(qq, qk, held_q, held_k)
        # s_int * (s_q * s_k) / sqrt(head_dim) in float64, the multiply
        # straight from the accumulator (f32 -> f64 is exact).
        scores = np.multiply(
            s_acc, self.q_quant.scale * self.k_quant.scale, dtype=np.float64
        ) / float(np.sqrt(self.head_dim))
        probs = F.softmax(scores, axis=-1)
        qp = self.p_quant.quantize(probs, out_dtype=_F32 if qv.dtype == _F32 else None)
        o_acc = self._pv_matmul(qp, qv, self._hold(qp), held_v)
        # Dequantize straight into the merged-heads (b, t, h, d) layout: one
        # pass instead of a multiply and a transposing copy.
        b, h, t, d = o_acc.shape
        merged = np.empty((b, t, h, d))
        np.multiply(
            o_acc,
            self.p_quant.scale * self.v_quant.scale,
            out=merged.transpose(0, 2, 1, 3),
            dtype=np.float64,
        )
        return self.to_out(merged.reshape(b, t, h * d))

    def _operand_dtype(self, kv_tokens: int):
        """Exact-f32 gating for the activation x activation matmuls: the
        longest dot product runs over max(head_dim, K/V token count)
        operands."""
        return _F32 if _exact_f32(max(self.head_dim, kv_tokens), self.bits) else None

    def _split_qkv(self, qkv: np.ndarray) -> Tuple[np.ndarray, ...]:
        """The Q, K and V column blocks of a ``(b, t, 3*dim)`` array as
        ``(b, heads, t, head_dim)`` views."""
        return tuple(
            self._split(qkv[..., i * self.dim : (i + 1) * self.dim]) for i in range(3)
        )

    def _qkv_quantizer(self, qkv: np.ndarray) -> SymmetricQuantizer:
        """The fused projection output's quantizer: the q / k / v scales as
        one ``(3*dim,)`` vector, so one pass quantizes the three column
        blocks, each element divided by its block's scale - the IEEE
        division a per-block quantize makes.  A sticky scale still freezes
        on its own block's first tensor (the block's peak is its heads')."""
        quants = (self.q_quant, self.k_quant, self.v_quant)
        scales = tuple(
            quant.ensure_scale(qkv[..., i * self.dim : (i + 1) * self.dim])
            for i, quant in enumerate(quants)
        )
        if scales != self._qkv_scales:
            d = self.__dict__
            d["_qkv_scales"] = scales
            d["_qkv_quant"] = SymmetricQuantizer(self.bits, np.repeat(scales, self.dim))
        return self._qkv_quant

    def _project_qkv(self, x: np.ndarray) -> np.ndarray:
        """Self-attention's Q, K and V as the column blocks of one ``(b, t,
        3*dim)`` array: one quantize, stats pass, GEMM and epilogue over
        the stacked weight, then each child's trace record and forward
        hooks on its block - the outputs and records of three separate
        ``QLinear`` forwards, bit for bit."""
        q_in, prev, acc = self._project(x, self._qkv_weight)
        out = self._epilogue(acc)
        if self._holds_state:
            q_in = self._keep_state(q_in, acc)
        stats = None
        if TraceRecorder.current() is not None:
            stats = _step_stats(q_in, prev)
        children = (self.to_q, self.to_k, self.to_v)
        for i, child in enumerate(children):
            block = out[..., i * self.dim : (i + 1) * self.dim]
            child._record(q_in, prev, block, stats)
            if child._forward_hooks:
                child.run_forward_hooks((x,), block)
        return out

    def _context_kv(self, context: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        cached = self._context_cache.get(id(context))
        if cached is not None:
            return cached[1], cached[2]
        k_full = self.to_k(context)
        v_full = self.to_v(context)
        self._context_cache[id(context)] = (context, k_full, v_full)
        return k_full, v_full

    # -- the two activation x activation matmuls ---------------------------
    def _held_operand(self, name: str, cur: np.ndarray) -> Optional[np.ndarray]:
        """The held operand ``name`` that ``cur`` differences against (None
        where none of ``cur``'s shape is held)."""
        prev = self._prev.get(name)
        return prev if prev is not None and prev.shape == cur.shape else None

    def _held_operands(self, data_name, data, other_name, other):
        """The held operands one matmul's two operands difference against.
        Cross attention's ``other`` is the constant K'/V' - a weight - so
        only its ``data`` is differenced."""
        prev_other = None
        if not self.is_cross:
            prev_other = self._held_operand(other_name, other)
        return self._held_operand(data_name, data), prev_other

    def _held_product(self, name: str, prev_data, prev_other) -> Optional[np.ndarray]:
        """The previous step's integer product ``name`` when the temporal
        executor can difference this step against it, else None."""
        differenced = prev_data is not None and (self.is_cross or prev_other is not None)
        return self._prev.get(name) if differenced and self._executes_temporal else None

    def _keep_operands(self, product_name: str, product: np.ndarray, **operands) -> None:
        """Hold this matmul's operands (as :meth:`_hold` gives them) for the
        next step's differences; the temporal executor also holds its
        integer product, as float64."""
        if not self._holds_state:
            return
        if self._executes_temporal:
            self._prev[product_name] = np.ascontiguousarray(product, dtype=np.float64)
        self._prev.update(operands)

    def _qk_matmul(self, qq, qk, held_q, held_k) -> np.ndarray:
        """``Q K^T`` of the quantized ``qq`` / ``qk``; ``held_*`` are the
        same operands as this layer holds and classifies them."""
        prev_q, prev_k = self._held_operands("q", held_q, "k", held_k)
        prev_s = self._held_product("s", prev_q, prev_k)
        bk = backends.active()
        kt = qk.transpose(0, 1, 3, 2)
        # The transposed-K views below are intentional: batched matmul eats
        # the stride-swapped trailing axes copy-free, and the backend owns
        # any materialization its blocking wants.
        if prev_s is None:
            s_int = bk.matmul(qq, kt)
        elif self.is_cross:
            s_int = prev_s + bk.matmul(_difference(qq, prev_q, "temporal-diff-q"), kt)
        else:
            # Q_t K_t^T = S_{t+1} + Q_t dK^T + dQ K_{t+1}^T
            dq = _difference(qq, prev_q, "temporal-diff-q")
            dk = _difference(qk, prev_k, "temporal-diff-k")
            s_int = (
                prev_s
                + bk.matmul(qq, dk.transpose(0, 1, 3, 2))
                + bk.matmul(dq, prev_k.transpose(0, 1, 3, 2))
            )
        self._record_matmul("qk", held_q, held_k, prev_q, prev_k, s_int, vpu_out=True)
        self._keep_operands("s", s_int, q=held_q, k=held_k)
        return s_int

    def _pv_matmul(self, qp, qv, held_p, held_v) -> np.ndarray:
        """``P V`` of the quantized ``qp`` / ``qv``; ``held_*`` as in
        :meth:`_qk_matmul`."""
        prev_p, prev_v = self._held_operands("p", held_p, "v", held_v)
        prev_o = self._held_product("o", prev_p, prev_v)
        bk = backends.active()
        if prev_o is None:
            o_int = bk.matmul(qp, qv)
        elif self.is_cross:
            o_int = prev_o + bk.matmul(_difference(qp, prev_p, "temporal-diff-p"), qv)
        else:
            # P_t V_t = O_{t+1} + P_t dV + dP V_{t+1}
            dp = _difference(qp, prev_p, "temporal-diff-p")
            dv = _difference(qv, prev_v, "temporal-diff-v")
            o_int = prev_o + bk.matmul(qp, dv) + bk.matmul(dp, prev_v)
        # The output feeds the linear projection directly: no VPU work.
        self._record_matmul("pv", held_p, held_v, prev_p, prev_v, o_int, vpu_out=False)
        self._keep_operands("o", o_int, p=held_p, v=held_v)
        return o_int

    def _record_matmul(
        self,
        suffix: str,
        data: np.ndarray,
        other: np.ndarray,
        prev_data: Optional[np.ndarray],
        prev_other: Optional[np.ndarray],
        out_int: np.ndarray,
        vpu_out: bool,
    ) -> None:
        if TraceRecorder.current() is None:
            return  # nobody is listening; skip the stats passes entirely
        b, h, t_data, inner = data.shape
        macs = b * h * t_data * other.shape[2] * inner
        if self.is_cross:
            # The constant K'/V' is a weight: neither classified nor
            # differenced.
            dense, spatial, temporal = _step_stats(data, prev_data)
            sub_ops, data_elems, weight_elems = 1, data.size, other.size
        else:
            dense, spatial, temporal = _step_stats(data, prev_data, other, prev_other)
            sub_ops, data_elems, weight_elems = 2, data.size + other.size, 0
        record_step(
            step_index=_current_step(),
            layer_name=f"{self.layer_name}.{suffix}",
            kind=f"attn_{suffix}",
            macs=macs,
            in_elems=data_elems,
            out_elems=out_int.size,
            weight_elems=weight_elems,
            data_elems=data_elems,
            stats_dense=dense,
            stats_spatial=spatial,
            stats_temporal=temporal,
            sub_ops_temporal=sub_ops,
            vpu_elems=out_int.size if vpu_out else 0,
            nonlinear_after=vpu_out,
            chained_input=False,
            producer_kind="other",
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


def set_model_mode(
    model: Module, mode: ExecutionMode, record_temporal: bool = False
) -> None:
    """Set the execution mode of every quantized layer.

    ``record_temporal`` makes each layer hold the operands it differences,
    so a recorded trace carries temporal stats while the layers execute
    ``mode``; a TEMPORAL layer holds them regardless.
    """
    for _, qlayer in iter_qlayers(model):
        qlayer.mode = mode
        qlayer.record_temporal = record_temporal


def remap_model_rows(model: Module, mapping, old_batch: int) -> None:
    """Drop all temporal state; kept only as a stable hook for profilers.

    Serving sessions execute dense and hold no temporal state, so there is
    no row state left to re-align and nothing in the package calls this.
    External tracing harnesses still patch the name, so it stays as an
    alias of :func:`reset_model_state`.
    """
    reset_model_state(model)
