"""The compute kernels behind the GEMM / im2col hot path.

Every integer GEMM the quantized layers execute - ``conv2d_from_cols_t``,
``linear``, the attention activation x activation matmuls and the
row-shift k-slice products - plus the float conv/linear calibration paths
and the ``im2col_t`` / ``unfold_rows`` unfolds, go through the one
:class:`ComputeBackend` instance that :func:`active` returns.  The kernels
are the pure-numpy ones in :mod:`repro.nn.functional`, verbatim.

The call goes through this object rather than straight to
``repro.nn.functional`` for one reason: it is the single entry point a
profiler wraps to count every GEMM and unfold, and source rule RPL011
(``tests/test_source_rules.py``) keeps quantized GEMMs on it so the
per-layer ledger misses none.

**Exactness.** Every quantized GEMM runs behind the float32-exactness
gate: a temporal difference spans ``2^bits - 1`` and a quantized operand
``2^(bits-1)``, so a dot product whose length satisfies
``dot_len * (2^bits - 1) * 2^(bits-1) < 2^24`` (at most 514 terms at 8
bits) keeps every partial sum an exactly representable integer and any
accumulation order yields identical bits.  Longer dot products run in
float64, exact up to ``2^53`` by the same argument.  ``dot_len`` is one
GEMM's: a stride-1 conv gates each of its k row-shift slice GEMMs
(``C*k`` terms) and sums their products in float64 when the whole
``C*k*k`` dot product is past the bound.

See ``docs/backends.md`` for the full contract.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from . import functional as F

__all__ = ["ComputeBackend", "registered_backends", "get_backend", "active"]


class ComputeBackend:
    """The dispatch surface the quantized and float layers call into.

    Stateless apart from the shared per-thread scratch pool.  ``im2col_t``
    output is C-contiguous in the ``(N, C*k*k, positions)`` layout and
    ``unfold_rows`` output in the ``(N, C*k, Hp*Wp)`` row-shift layout: the
    gate reasoning and the spatial-difference stats both assume them.
    """

    name = "reference"

    # -- integer/float GEMM surface -----------------------------------------
    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Batched activation x activation product (attention QK / PV)."""
        return np.matmul(a, b)

    def linear(
        self, x: np.ndarray, weight: np.ndarray, bias: Optional[np.ndarray] = None
    ) -> np.ndarray:
        return F.linear(x, weight, bias)

    def conv2d_from_cols_t(
        self,
        cols_t: np.ndarray,
        weight: np.ndarray,
        out_hw: Tuple[int, int],
        bias: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        return F.conv2d_from_cols_t(cols_t, weight, out_hw, bias)

    # -- unfold + composed float conv ---------------------------------------
    def im2col_t(
        self,
        x: np.ndarray,
        kernel: int,
        stride: int = 1,
        padding: int = 0,
        out: Optional[np.ndarray] = None,
    ):
        return F.im2col_t(x, kernel, stride, padding, out=out)

    def unfold_rows(
        self,
        x: np.ndarray,
        kernel: int,
        padding: int = 0,
        out: Optional[np.ndarray] = None,
    ):
        """Row-shift unfold for stride-1 convs (see ``F.unfold_rows``)."""
        return F.unfold_rows(x, kernel, padding, out=out)

    def conv2d(
        self,
        x: np.ndarray,
        weight: np.ndarray,
        bias: Optional[np.ndarray] = None,
        stride: int = 1,
        padding: int = 0,
    ) -> np.ndarray:
        """Float conv path, composed from the unfold + GEMM above."""
        kernel = weight.shape[2]
        n, c, h, w = x.shape
        out_h = (h + 2 * padding - kernel) // stride + 1
        out_w = (w + 2 * padding - kernel) // stride + 1
        cols_t, out_hw = self.im2col_t(
            x,
            kernel,
            stride,
            padding,
            out=F.scratch_buffer(
                "conv2d-cols", (n, c * kernel * kernel, out_h * out_w), x.dtype
            ),
        )
        return self.conv2d_from_cols_t(cols_t, weight, out_hw, bias)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<{type(self).__name__} {self.name!r}>"


_BACKEND = ComputeBackend()


def registered_backends() -> Tuple[str, ...]:
    """The name of the one compute path, as a tuple."""
    return (ComputeBackend.name,)


def get_backend(name: str) -> ComputeBackend:
    """The shared instance; any name but ``"reference"`` raises."""
    if name != ComputeBackend.name:
        raise ValueError(
            f"unknown compute backend {name!r}; the only one is "
            f"{ComputeBackend.name!r}"
        )
    return _BACKEND


def active() -> ComputeBackend:
    """The instance every layer dispatches through."""
    return _BACKEND
