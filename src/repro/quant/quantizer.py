"""Symmetric fixed-point quantization primitives.

The paper evaluates A8W8 models quantized with Q-Diffusion (UNets) or simple
dynamic quantization (diffusion transformers).  What the Ditto algorithm
actually requires from the quantizer is narrower than either method: for
temporal differences ``q_t - q_{t+1}`` to be exact integers, adjacent steps
must share one scaling factor per layer.  :class:`SymmetricQuantizer`
provides that: a per-tensor symmetric scale, calibrated offline from a short
FP32 trajectory (static mode) or frozen on first use (the "dynamic" mode used
for DiT/Latte - hardware determines the scale at the first time step and
keeps it, exactly like the accelerator would).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn.functional import _clip
from ..scratch import scratch_buffer

__all__ = ["SymmetricQuantizer", "quantize", "dequantize", "qrange"]


def qrange(bits: int) -> tuple:
    """(qmin, qmax) of a signed two's-complement integer of ``bits`` bits."""
    return -(1 << (bits - 1)), (1 << (bits - 1)) - 1


def _check_scale(scale):
    """Raise unless ``scale`` is positive (a scalar, or an array of per-row
    scales); returns it.  Quantizers check a scale where it is set, so
    their per-call path runs unchecked."""
    if isinstance(scale, np.ndarray):
        if scale.size == 0 or np.any(scale <= 0.0):
            raise ValueError("per-row scales must all be positive")
    elif scale <= 0.0:
        raise ValueError(f"scale must be positive, got {scale}")
    return scale


def _quantize(x: np.ndarray, scale, qmin: int, qmax: int, out_dtype=None) -> np.ndarray:
    """:func:`quantize` of an array by a checked ``scale``: divide, rint and
    one clip call, the first two in ``x``'s precision."""
    if out_dtype is not None and out_dtype != x.dtype:
        # The full-precision quotient is a transient here: rint computes in
        # the input precision and cast-stores the exact integer result
        # directly into the (fresh) target buffer.
        q = np.divide(x, scale, out=scratch_buffer("quantize-div", x.shape, x.dtype))
        q = np.rint(q, out=np.empty(q.shape, dtype=out_dtype), casting="same_kind")
    else:
        # One temporary instead of three: divide, then round/clip in place.
        q = np.divide(x, scale)
        np.rint(q, out=q)
    return _clip(q, qmin, qmax, out=q)


def quantize(
    x: np.ndarray, scale: float, bits: int = 8, out_dtype=None
) -> np.ndarray:
    """Round-to-nearest symmetric quantization to signed integers.

    Returns float arrays holding exact integer values: integer arithmetic on
    them (matmuls, subtraction) is exact well inside the float precision any
    of our layer shapes can reach, while staying on numpy's fast BLAS path.
    The division and rounding always run in the input precision (float64 for
    float64 inputs - the rounding decision must not change); ``out_dtype``
    only selects the storage dtype of the (exact-integer) result, letting
    layers on the provably-exact float32 path skip a separate cast pass.

    ``scale`` is a positive scalar or an array broadcastable against ``x``
    (the per-row scale vectors of timestep-clustered quantizers when batch
    rows sit in different step clusters, see :mod:`repro.quant.tdq`).
    """
    _check_scale(scale)
    qmin, qmax = qrange(bits)
    if not isinstance(x, np.ndarray):
        return np.clip(np.rint(x / scale), qmin, qmax)
    return _quantize(x, scale, qmin, qmax, out_dtype)


def dequantize(q: np.ndarray, scale: float) -> np.ndarray:
    return q * scale


class SymmetricQuantizer:
    """Per-tensor symmetric quantizer with observe/freeze calibration."""

    def __init__(self, bits: int = 8, scale: Optional[float] = None) -> None:
        if bits < 2:
            raise ValueError("need at least 2 bits for signed quantization")
        self.bits = bits
        self.qmin, self.qmax = qrange(bits)
        self.scale = None if scale is None else _check_scale(scale)
        self._observed_max = 0.0

    # -- calibration -------------------------------------------------------
    def observe(self, x: np.ndarray) -> None:
        """Accumulate the dynamic range of calibration tensors.

        Raises on non-finite values: a NaN/inf reaching the quantizer means
        the model diverged, and silently clipping it would corrupt every
        downstream difference statistic.
        """
        if x.size == 0:
            return
        # max(|x|) without materializing |x|: two allocation-free reductions.
        peak = float(max(np.max(x), -np.min(x)))
        if not np.isfinite(peak):
            raise ValueError("non-finite values reached the quantizer")
        self._observed_max = max(self._observed_max, peak)

    def freeze(self) -> float:
        """Fix the scale from observed ranges; returns the chosen scale."""
        peak = self._observed_max if self._observed_max > 0.0 else 1.0
        self.scale = _check_scale(peak / self.qmax)
        return self.scale

    @property
    def calibrated(self) -> bool:
        return self.scale is not None

    def ensure_scale(self, x: np.ndarray) -> float:
        """Dynamic-but-sticky calibration: freeze on first tensor seen."""
        if self.scale is None:
            self.observe(x)
            self.freeze()
        return self.scale

    def grid(self) -> tuple:
        """What fixes this quantizer's integer grid, as a comparable key."""
        return (type(self).__name__, self.bits, self.scale)

    # -- conversion -----------------------------------------------------------
    def quantize(self, x: np.ndarray, out_dtype=None) -> np.ndarray:
        """:func:`quantize` of the array ``x`` by this quantizer's scale,
        frozen on first use.  The scale was checked where it was set
        (construction, :meth:`freeze`), so this runs unchecked."""
        scale = self.scale
        if scale is None:
            scale = self.ensure_scale(x)
        return _quantize(x, scale, self.qmin, self.qmax, out_dtype)

    def dequantize(self, q: np.ndarray) -> np.ndarray:
        if self.scale is None:
            raise RuntimeError("quantizer used before calibration")
        return dequantize(q, self.scale)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SymmetricQuantizer(bits={self.bits}, scale={self.scale})"
