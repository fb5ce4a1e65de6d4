"""The ``blas-batched`` backend: batched products as single 2-D GEMMs.

numpy dispatches a 3-d ``(out_c, dot) @ (N, dot, P)`` matmul as ``N``
separate BLAS GEMM calls; for the serving batch sizes that means ``N``
fixed per-call overheads and ``N`` chances for the (single-threaded on the
dev container, multi-threaded on real hosts) BLAS to see a matrix too small
to tile well.  This backend gathers the batch into one ``(dot, N*P)``
operand - contiguous ``P``-long position runs, staged through the shared
per-thread scratch pool so ``scratch_pool_bytes()`` (and therefore
``estimate_row_footprint`` / ``--pool-budget-mb``) accounts it - issues a
single 2-D GEMM, and scatters the ``(out_c, N*P)`` product back to the
C-contiguous ``(N, out_c, P)`` layout the layers expect.  ``linear`` gets
the same treatment by flattening the leading axes.  A thread-per-batch-row
variant would split exactly this gather/GEMM/scatter structure; on the
single-core container the fused GEMM alone is the point.

Bit-exactness: the quantized GEMMs run behind the exact-f32 gate, so the
re-blocked BLAS accumulation order cannot change a single bit (every
partial sum is an exactly-representable integer).  The *float* calibration
products may move in the last ulp relative to ``reference`` - which is why
backend selection is a cache-key axis and cross-backend results never
alias.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .. import functional as F
from . import ComputeBackend


class BlasBatchedBackend(ComputeBackend):
    """Fuse batched conv/linear products into single large 2-D GEMMs."""

    name = "blas-batched"

    @classmethod
    def probe(cls) -> Tuple[bool, Optional[str]]:
        """A tiny fused-GEMM self-check; degrade to reference if it fails."""
        try:
            a = np.arange(6, dtype=np.float32).reshape(2, 3)
            b = np.arange(12, dtype=np.float32).reshape(3, 4)
            if not np.array_equal(a @ b, np.einsum("ij,jk->ik", a, b)):
                return False, "fused 2-D GEMM self-check mismatch"
        except Exception as exc:
            return False, f"GEMM self-check failed: {type(exc).__name__}: {exc}"
        return True, None

    def linear(
        self, x: np.ndarray, weight: np.ndarray, bias: Optional[np.ndarray] = None
    ) -> np.ndarray:
        if x.ndim <= 2 or not x.flags.c_contiguous:
            # 2-d inputs are already one GEMM; non-contiguous stacks would
            # need a compacting copy that the batched path avoids.
            return F.linear(x, weight, bias)
        lead = x.shape[:-1]
        # Free on C-contiguous activations: one (rows, in) view of the stack.
        # repro-lint: assume[c-contiguous]
        flat = x.reshape(-1, x.shape[-1])
        out = flat @ weight.T
        if bias is not None:
            out = out + bias
        return out.reshape(lead + (weight.shape[0],))

    def conv2d_from_cols_t(
        self,
        cols_t: np.ndarray,
        weight: np.ndarray,
        out_hw: Tuple[int, int],
        bias: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        flat_w = weight if weight.ndim == 2 else weight.reshape(weight.shape[0], -1)
        n, dot, positions = cols_t.shape
        if n == 1 and cols_t.flags.c_contiguous:
            # (1, dot, P) -> (dot, P) is a free view: batch 1 *is* 2-D.
            # repro-lint: assume[c-contiguous]
            cols2d = cols_t.reshape(dot, positions)
        else:
            # Gather (N, dot, P) -> (dot, N*P): N contiguous P-runs per
            # feature row, staged in the shared pool so the serving memory
            # accounting sees it.  The same copy compacts a non-contiguous
            # operand, so the C-layout GEMM kernels never see one.
            cols2d = F.scratch_buffer("blas-cols2d", (dot, n * positions), cols_t.dtype)
            np.copyto(cols2d.reshape(dot, n, positions).transpose(1, 0, 2), cols_t)
        out2d = np.matmul(flat_w, cols2d)
        if n == 1:
            out = out2d.reshape(1, flat_w.shape[0], positions)
        else:
            # Scatter (out_c, N*P) back to the C-contiguous (N, out_c, P)
            # layout conv2d_from_cols_t promises downstream consumers.
            out = np.empty((n, flat_w.shape[0], positions), dtype=out2d.dtype)
            np.copyto(
                out, out2d.reshape(flat_w.shape[0], n, positions).transpose(1, 0, 2)
            )
        if bias is not None:
            out += bias[:, None]
        return out.reshape(n, flat_w.shape[0], *out_hw)
