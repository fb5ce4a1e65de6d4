"""Execution-flow policies: lowering rich traces to hardware traces.

Each policy picks one execution mode per record of a
:class:`~repro.core.trace.RichTrace` and lowers it with
:meth:`~repro.core.trace.RichTrace.lower_modes` to the hardware-facing
:class:`~repro.core.trace.Trace` a cycle model consumes:

* ``dense`` - original quantized activations everywhere (ITC / GPU).
* ``spatial`` - Diffy: intra-tensor differences at every step.
* ``temporal`` - the naive Ditto algorithm / Cambricon-D software: first
  step dense, every later step temporal differences.
* Defo / Defo+ / ideal / dynamic policies live in :mod:`repro.core.defo`.

``attention_diff=False`` forces the attention matmuls to dense, reproducing
the original Cambricon-D behaviour that "processes attention layers with
full bit-width operations" (paper Section VI-A).
"""

from __future__ import annotations

import numpy as np

from .trace import DENSE_ID, SPATIAL_ID, TEMPORAL_ID, RichTrace, Trace

__all__ = [
    "lower_dense",
    "lower_spatial",
    "lower_temporal",
]


def constant_modes(
    rich_trace: RichTrace, mode_id: int, attention_diff: bool
) -> np.ndarray:
    """One mode everywhere, except attention forced dense when restricted."""
    if attention_diff:
        return np.full(len(rich_trace), mode_id, dtype=np.int64)
    return np.where(rich_trace.attention_mask(), DENSE_ID, mode_id)


def lower_dense(rich_trace: RichTrace) -> Trace:
    """Every layer at every step with original 8-bit activations."""
    return rich_trace.lower_modes(
        constant_modes(rich_trace, DENSE_ID, True), bypass_style="none"
    )


def lower_spatial(rich_trace: RichTrace, attention_diff: bool = True) -> Trace:
    """Diffy: spatial (intra-tensor) differences at every step."""
    return rich_trace.lower_modes(
        constant_modes(rich_trace, SPATIAL_ID, attention_diff), bypass_style="none"
    )


def lower_temporal(
    rich_trace: RichTrace,
    bypass_style: str = "chained",
    attention_diff: bool = True,
) -> Trace:
    """Naive temporal difference processing: dense first step, diffs after.

    (Records without temporal stats - the first step - fall back to dense
    inside the lowering automatically.)
    """
    return rich_trace.lower_modes(
        constant_modes(rich_trace, TEMPORAL_ID, attention_diff),
        bypass_style=bypass_style,
    )
