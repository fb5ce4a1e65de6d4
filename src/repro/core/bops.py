"""Bit-Operations (BOPs) accounting (paper Section III-B, Fig. 6).

Following the paper's references [5], [50], a multiply of an ``a``-bit
activation by a ``w``-bit weight costs ``a * w`` bit operations.  With
operands bucketed by :mod:`repro.core.bitwidth`, a layer's BOPs are::

    BOPs = macs * (zero_frac * 0 + low_frac * 4*8 + high_frac * 8*8)

normalized against ``macs * 8*8`` for the dense quantized baseline.  Every
count runs over the columns of a lowered :class:`~repro.core.trace.Trace`.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from .bitwidth import FULL_BITS, LOW_BITS
from .trace import DENSE_ID, Trace

__all__ = [
    "trace_bops",
    "relative_bops",
    "per_step_relative_bops",
]

_DENSE_COST = FULL_BITS * FULL_BITS  # 8b activation x 8b weight
_LOW_COST = LOW_BITS * FULL_BITS  # 4b difference x 8b weight


def _record_bops(trace: Trace, zero_skipping: bool) -> np.ndarray:
    """Per-record BOPs column, sub-operations included.

    Dense execution runs every operand as a full 8-bit multiply, so its cost
    is exactly ``macs * 64`` - the Fig. 6a "Activation" baseline of 1.0.
    Without zero skipping (e.g. pure dynamic-bit-width hardware), zero
    operands still cost a low-bit operation.
    """
    work = (trace.col("macs") * trace.col("sub_ops")).astype(np.float64)
    zero_frac, low_frac, high_frac = trace.operand_fractions()
    zero_cost = 0.0 if zero_skipping else float(_LOW_COST)
    per_mac = zero_frac * zero_cost + low_frac * _LOW_COST + high_frac * _DENSE_COST
    return np.where(
        trace.col("mode") == DENSE_ID, work * _DENSE_COST, work * per_mac
    )


def trace_bops(trace: Trace, zero_skipping: bool = True) -> float:
    return float(_record_bops(trace, zero_skipping).sum())


def relative_bops(trace: Trace, zero_skipping: bool = True) -> float:
    """Trace BOPs normalized to the dense 8-bit baseline (Fig. 6a)."""
    baseline = dense_bops_reference(trace)
    if baseline == 0:
        return 0.0
    return trace_bops(trace, zero_skipping) / baseline


def dense_bops_reference(trace: Trace) -> float:
    """Dense baseline counts each layer *once* (no difference sub-ops)."""
    return float(int(trace.col("macs").sum()) * _DENSE_COST)


def per_step_relative_bops(
    trace: Trace, zero_skipping: bool = True
) -> Dict[int, float]:
    """Per-time-step relative BOPs (Fig. 6b)."""
    steps, inverse = np.unique(trace.col("step_index"), return_inverse=True)
    dense = np.bincount(inverse, weights=trace.col("macs")) * _DENSE_COST
    actual = np.bincount(inverse, weights=_record_bops(trace, zero_skipping))
    return {
        int(step): float(actual[i] / dense[i]) if dense[i] else 0.0
        for i, step in enumerate(steps)
    }
