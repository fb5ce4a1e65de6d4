"""Pluggable compute backends for the GEMM / im2col hot path (PR 10).

Every integer GEMM the quantized layers execute - ``conv2d_from_cols_t``,
``linear``, the two attention activation x activation matmuls - plus the
float conv/linear calibration paths and the ``im2col_t`` / ``unfold_rows``
unfolds, dispatch through one small interface, :class:`ComputeBackend`.
Two implementations ship:

* ``reference`` - the pure-numpy kernels in :mod:`repro.nn.functional`,
  verbatim.  This is the default and the bit-exactness anchor.
* ``blas-batched`` - reshapes the ``(out_c, dot) @ (N, dot, P)`` batched
  conv products and the stacked ``linear`` products into single large 2-D
  GEMMs so one BLAS call sees the whole batch (see
  :mod:`repro.nn.backends.blas_batched`).

**Exactness obligation.** A backend may reorder floating-point summation
freely *only because* every quantized GEMM runs behind the provable
float32-exactness gate from PR 2 (``dot_len * 2^(2(bits-1)) < 2^24``; the
float64 path is exact up to ``2^53`` by the same argument).  Integer-valued
operands under those bounds make every partial sum exactly representable,
so any accumulation order produces identical bits.  The *float* calibration
paths carry no such guarantee - a backend may move them in the last ulp,
which is exactly why backend selection is a cache-key axis
(``engine_key`` / ``engine_build_key`` / ``plan_key``): results from
different backends never alias.

**Selection & fallback.** :func:`repro.defaults.resolve_backend` resolves
the *requested* name (override > spec pin > ``$REPRO_BACKEND`` > default).
:func:`probe_backend` then degrades an unavailable or unknown backend to
``reference`` with a recorded human-readable reason; the cache key keeps
the requested name either way, so a degraded run never aliases a native
one.  The active backend is per-thread: engines wrap their runs in
:func:`use_backend`, and the layers ask :func:`active` at dispatch time.

See ``docs/backends.md`` for the full contract.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Optional, Tuple, Type

import numpy as np

from ...defaults import resolve_backend
from .. import functional as F

__all__ = [
    "ComputeBackend",
    "ReferenceBackend",
    "BlasBatchedBackend",
    "register_backend",
    "registered_backends",
    "available_backends",
    "probe_backend",
    "get_backend",
    "active",
    "use_backend",
]


class ComputeBackend:
    """The dispatch surface the quantized and float layers call into.

    Implementations MUST be stateless apart from per-thread scratch (engine
    objects pickle through the result cache holding only the backend
    *name*), and MUST be bit-exact for integer-valued operands within the
    exact-f32 gate bounds - that is the whole license to reorder the math.
    ``im2col_t`` output must be C-contiguous in the reference
    ``(N, C*k*k, positions)`` layout, and ``unfold_rows`` output in the
    reference ``(N, C*k, Hp*Wp)`` row-shift layout: the gate reasoning and
    the spatial-difference stats both assume them.
    """

    name = "abstract"

    @classmethod
    def probe(cls) -> Tuple[bool, Optional[str]]:
        """``(available, reason)``: why this backend cannot run here (if so)."""
        return True, None

    # -- integer/float GEMM surface -----------------------------------------
    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Batched activation x activation product (attention QK / PV)."""
        return np.matmul(a, b)

    def linear(
        self, x: np.ndarray, weight: np.ndarray, bias: Optional[np.ndarray] = None
    ) -> np.ndarray:
        raise NotImplementedError

    def conv2d_from_cols_t(
        self,
        cols_t: np.ndarray,
        weight: np.ndarray,
        out_hw: Tuple[int, int],
        bias: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        raise NotImplementedError

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
        """Float conv path, composed from this backend's unfold + GEMM."""
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

    # -- accounting ----------------------------------------------------------
    def scratch_nbytes(self) -> int:
        """Backend-private scratch held *outside* the shared pool.

        Both shipped backends route their workspaces through
        ``repro.scratch.scratch_buffer``, which ``scratch_pool_bytes()``
        already counts, so they report 0 here; a backend holding its own
        buffers must report them so ``estimate_row_footprint`` (and thus
        ``--pool-budget-mb``) stays honest.
        """
        return 0

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<{type(self).__name__} {self.name!r}>"


from .blas_batched import BlasBatchedBackend  # noqa: E402
from .reference import ReferenceBackend  # noqa: E402

_REGISTRY: Dict[str, Type[ComputeBackend]] = {}
_INSTANCES: Dict[str, ComputeBackend] = {}
_PROBES: Dict[str, Tuple[bool, Optional[str]]] = {}
_ACTIVE = threading.local()


def register_backend(name: str, cls: Type[ComputeBackend]) -> None:
    """Add a backend to the registry (tests register failing probes here)."""
    _REGISTRY[name] = cls
    _INSTANCES.pop(name, None)
    _PROBES.pop(name, None)


register_backend("reference", ReferenceBackend)
register_backend("blas-batched", BlasBatchedBackend)


def registered_backends() -> Tuple[str, ...]:
    """Every registered backend name, available or not."""
    return tuple(sorted(_REGISTRY))


def available_backends() -> Tuple[str, ...]:
    """Registered backends whose availability probe passes."""
    return tuple(name for name in registered_backends() if _probe(name)[0])


def _probe(name: str) -> Tuple[bool, Optional[str]]:
    cached = _PROBES.get(name)
    if cached is None:
        try:
            cached = _REGISTRY[name].probe()
        except Exception as exc:  # probe itself blew up: not available
            cached = (False, f"probe raised {type(exc).__name__}: {exc}")
        _PROBES[name] = cached
    return cached


def probe_backend(name: Optional[str] = None) -> Tuple[str, Optional[str]]:
    """``(effective_name, fallback_reason)`` for a requested backend.

    Unknown names and backends whose probe fails degrade to ``reference``;
    the reason says why.  ``reason`` is ``None`` when the request runs
    natively.
    """
    requested = resolve_backend(None, name)
    if requested not in _REGISTRY:
        return "reference", f"unknown backend {requested!r}, using reference"
    ok, reason = _probe(requested)
    if ok:
        return requested, None
    return "reference", f"backend {requested!r} unavailable ({reason}), using reference"


def get_backend(name: Optional[str] = None) -> ComputeBackend:
    """The (shared, stateless) backend instance a request resolves to."""
    effective, _ = probe_backend(name)
    instance = _INSTANCES.get(effective)
    if instance is None:
        instance = _REGISTRY[effective]()
        _INSTANCES[effective] = instance
    return instance


def active() -> ComputeBackend:
    """This thread's active backend (engines set it via :func:`use_backend`).

    Outside any ``use_backend`` scope, falls back to the environment-level
    resolution so standalone layer calls (tests, notebooks) honour
    ``REPRO_BACKEND`` too.
    """
    backend = getattr(_ACTIVE, "backend", None)
    if backend is not None:
        return backend
    return get_backend(None)


@contextmanager
def use_backend(name: Optional[str]):
    """Make ``name`` (after fallback) this thread's active backend."""
    previous = getattr(_ACTIVE, "backend", None)
    _ACTIVE.backend = get_backend(name)
    try:
        yield _ACTIVE.backend
    finally:
        _ACTIVE.backend = previous
