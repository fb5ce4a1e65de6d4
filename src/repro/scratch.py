"""Per-thread reusable scratch buffers for hot-path intermediates.

The instrumentation pipeline (quantized layers, bit-width classification,
im2col padding) produces large, short-lived temporaries at a high rate; on
the hot path every one of them would otherwise be a fresh multi-hundred-KB
allocation.  This pool hands out reusable arrays keyed by ``(tag, shape,
dtype)``.

Buffers are thread-local - layer execution and trace recording are
thread-scoped already - so concurrent engine runs in different threads never
alias.  Contents are undefined between uses (except where a caller's
contract, like :func:`repro.nn.functional.im2col`'s zero pad border, says
otherwise): callers must fully overwrite and consume a buffer before the
next call that could reuse its key.
"""

from __future__ import annotations

import threading
from typing import Dict, Tuple

import numpy as np

__all__ = ["scratch_buffer", "clear_scratch", "scratch_pool_bytes"]

_SCRATCH = threading.local()


def clear_scratch() -> None:
    """Drop this thread's pooled buffers.

    The pool never evicts on its own, so a long-lived process that runs many
    differently-shaped models serially (a whole-suite sweep or bench)
    accumulates the union of their large temporaries.  Call this between
    models to return peak memory to one model's working set.
    """
    buffers = getattr(_SCRATCH, "buffers", None)
    if buffers is not None:
        buffers.clear()


def scratch_pool_bytes() -> int:
    """Total bytes currently held by this thread's pooled buffers.

    The tests read it after one dense probe forward to bound a batch row's
    scratch footprint, which pins the memory of the conv unfold layout.
    """
    buffers = getattr(_SCRATCH, "buffers", None)
    if not buffers:
        return 0
    return sum(buf.nbytes for buf in buffers.values())


def scratch_buffer(tag: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
    """A reusable per-thread array for transient intermediates."""
    buffers: Dict[tuple, np.ndarray] = getattr(_SCRATCH, "buffers", None)
    if buffers is None:
        buffers = {}
        _SCRATCH.buffers = buffers
    key = (tag, shape, dtype if isinstance(dtype, np.dtype) else np.dtype(dtype))
    buf = buffers.get(key)
    if buf is None:
        buf = np.zeros(shape, dtype=dtype)
        buffers[key] = buf
    return buf
