"""Benchmark support: reset the per-thread scratch pools between measurements.

The repository benchmark lives in ``perfbench/`` (workloads, layer tracer
and runner) and is gated in CI by ``scripts/check_bench.py``; its runner
imports :func:`clear_pools` from here.
"""

from __future__ import annotations

from .core.bitwidth import clear_classification_pool
from .scratch import clear_scratch

__all__ = ["clear_pools"]


def clear_pools() -> None:
    """Reset the per-thread scratch pools between measured models."""
    clear_scratch()
    clear_classification_pool()
