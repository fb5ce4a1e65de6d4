"""Opt-in runtime numeric sanitizer for the serving stack.

It is the one guard of two defect classes, checked on every kernel call:

* **no float64 inside a float32 calibration region** - the
  ``calibration_precision("float32")`` fast path casts the whole model to
  float32; any float64 array reaching a kernel inside that region means a
  NEP-50 promotion leak (and silently doubles the calibration cost).
* **no non-C-contiguous cols into the conv GEMM** - ``conv2d_from_cols_t``
  assumes a C-contiguous column buffer.  Every conv, the compute-backend
  dispatch included, resolves the kernel through ``repro.nn.functional``,
  so the wrapper sees them all.

Activation is opt-in: set ``REPRO_SANITIZE=1`` and the test suite's conftest
installs the kernel wrappers for the whole session (one CI matrix leg runs
this way).  ``calibration_precision`` always marks its region via
:func:`calibration_region` - the marker is a cheap thread-local push/pop, so
production runs pay nothing when the wrappers are not installed.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional

import numpy as np

from . import functional as F

__all__ = [
    "SanitizerError",
    "enabled",
    "calibration_region",
    "active_calibration_dtype",
    "install",
    "uninstall",
    "installed",
    "sanitized",
]


class SanitizerError(AssertionError):
    """A numeric invariant was violated at runtime."""


_STATE = threading.local()


def _region_stack() -> list:
    stack = getattr(_STATE, "regions", None)
    if stack is None:
        stack = _STATE.regions = []
    return stack


def enabled() -> bool:
    """Whether the environment opted into sanitized runs."""
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() in {"1", "true", "yes", "on"}


@contextmanager
def calibration_region(dtype: np.dtype) -> Iterator[None]:
    """Mark the dynamic extent of a ``calibration_precision`` region."""
    stack = _region_stack()
    stack.append(np.dtype(dtype))
    try:
        yield
    finally:
        stack.pop()


def active_calibration_dtype() -> Optional[np.dtype]:
    stack = _region_stack()
    return stack[-1] if stack else None


def _check_no_float64(kernel: str, *arrays: Optional[np.ndarray]) -> None:
    if active_calibration_dtype() != np.dtype(np.float32):
        return
    for array in arrays:
        if isinstance(array, np.ndarray) and array.dtype == np.float64:
            raise SanitizerError(
                f"float64 array (shape {array.shape}) reached {kernel}() inside a "
                f"float32 calibration region - a NEP-50 promotion leak is "
                f"re-widening the fast path"
            )


def _check_contiguous(kernel: str, name: str, array: np.ndarray) -> None:
    if isinstance(array, np.ndarray) and not array.flags.c_contiguous:
        raise SanitizerError(
            f"{kernel}() received a non-C-contiguous {name} buffer "
            f"(shape {array.shape}, strides {array.strides}) - the blocked "
            f"integer GEMM assumes C layout"
        )


_originals: Dict[str, Callable] = {}


def installed() -> bool:
    return bool(_originals)


def install() -> None:
    """Wrap the hot kernels in ``repro.nn.functional`` with invariant checks."""
    if _originals:
        return

    def wrap_dtype(name: str) -> None:
        original = getattr(F, name)

        def wrapper(*args, **kwargs):
            arrays = [a for a in args if isinstance(a, np.ndarray)]
            arrays += [v for v in kwargs.values() if isinstance(v, np.ndarray)]
            _check_no_float64(name, *arrays)
            return original(*args, **kwargs)

        wrapper.__name__ = f"sanitized_{name}"
        _originals[name] = original
        setattr(F, name, wrapper)

    def wrap_cols(name: str) -> None:
        original = getattr(F, name)

        def wrapper(cols, *args, **kwargs):
            _check_contiguous(name, "cols", cols)
            _check_no_float64(name, cols if isinstance(cols, np.ndarray) else None)
            return original(cols, *args, **kwargs)

        wrapper.__name__ = f"sanitized_{name}"
        _originals[name] = original
        setattr(F, name, wrapper)

    for kernel in ("linear", "conv2d", "group_norm", "layer_norm"):
        wrap_dtype(kernel)
    wrap_cols("conv2d_from_cols_t")


def uninstall() -> None:
    """Restore the original kernels."""
    if not _originals:
        return

    for name, original in _originals.items():
        setattr(F, name, original)
    _originals.clear()


@contextmanager
def sanitized() -> Iterator[None]:
    """Scoped install/uninstall (the conftest fixture uses this)."""
    install()
    try:
        yield
    finally:
        uninstall()
