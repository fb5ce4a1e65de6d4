"""Defo - Ditto execution flow optimization (paper Sections IV-B, VI-C).

Defo decides, per linear layer, whether temporal difference processing
actually wins on the target hardware:

1. **First time step** runs with original activations (Defo+ runs it with
   spatial differences) and the per-layer cycle count is stored
   (``Cycle_act``).
2. **Second time step** runs every layer with temporal differences and the
   cycle count is stored (``Cycle_diff``).
3. Layers with ``Cycle_act > Cycle_diff`` keep temporal difference
   processing for all later steps; the rest fall back to original-activation
   execution (Defo) or spatial difference processing (Defo+).

``Dynamic-Ditto`` (Fig. 19) re-evaluates the comparison every step and may
switch a layer from difference processing back to the fallback (never the
other direction - the hardware cannot observe difference cycles while
running dense).  ``ideal`` is the oracle that picks the per-layer, per-step
argmin; Fig. 17/18 measure how close Defo gets to it.

The hardware model is a parameter: anything with
``cycles_array(Trace) -> per-record cycles`` (every model in
:mod:`repro.hw.accelerators`), so Defo decisions can be studied on Ditto
hardware, Cambricon-D, or the DS/DB ablations.  Both candidate costs of every
record come from two lowerings of the whole rich trace, priced in one call
each; the decision walk itself is plain bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from .modes import ExecutionMode
from .policy import constant_modes
from .trace import MODE_ID, MODES, TEMPORAL_ID, RichTrace, Trace

__all__ = ["DefoReport", "run_defo", "run_ideal"]


@dataclass
class DefoReport:
    """Outcome of a Defo-governed lowering."""

    trace: Trace
    decisions: Dict[str, ExecutionMode]
    cycle_act: Dict[str, float]
    cycle_diff: Dict[str, float]
    changed_layers: List[str]
    accuracy: float
    plus: bool
    dynamic: bool
    # mode actually used per (layer, step) for steps >= 2 (analysis aid)
    assigned: Dict[Tuple[str, int], ExecutionMode] = field(default_factory=dict)

    @property
    def changed_fraction(self) -> float:
        if not self.decisions:
            return 0.0
        return len(self.changed_layers) / len(self.decisions)

    def summary(self) -> str:
        kind = "Defo+" if self.plus else "Defo"
        if self.dynamic:
            kind = "Dynamic-" + kind
        return (
            f"{kind}: {len(self.changed_layers)}/{len(self.decisions)} layers "
            f"changed ({100 * self.changed_fraction:.1f}%), "
            f"decision accuracy {100 * self.accuracy:.1f}%"
        )


def _candidate_cycles(
    rich_trace: RichTrace,
    hardware,
    plus: bool,
    bypass_style: str,
    attention_diff: bool,
) -> Tuple[ExecutionMode, np.ndarray, np.ndarray, np.ndarray]:
    """``(fallback, allowed_ids, t_cycles, f_cycles)`` for every record.

    ``allowed_ids`` is temporal processing as the policy allows it
    (attention forced dense without ``attention_diff``); ``t_cycles`` and
    ``f_cycles`` price every record under that choice and under the
    fallback (dense for Defo, spatial for Defo+).
    """
    fallback = ExecutionMode.SPATIAL if plus else ExecutionMode.DENSE
    allowed_ids = constant_modes(rich_trace, TEMPORAL_ID, attention_diff)
    fallback_ids = np.full(len(rich_trace), MODE_ID[fallback], dtype=np.int64)

    def cycles(mode_ids: np.ndarray) -> np.ndarray:
        trace = rich_trace.lower_modes(mode_ids, bypass_style)
        return np.asarray(hardware.cycles_array(trace), dtype=np.float64)

    return fallback, allowed_ids, cycles(allowed_ids), cycles(fallback_ids)


def run_defo(
    rich_trace: RichTrace,
    hardware,
    plus: bool = False,
    dynamic: bool = False,
    bypass_style: str = "chained",
    attention_diff: bool = True,
) -> DefoReport:
    """Lower ``rich_trace`` under Defo (or Defo+/Dynamic-Ditto) decisions."""
    step_col = rich_trace.col("step_index")
    steps = [int(s) for s in np.unique(step_col)]
    if len(steps) < 2:
        raise ValueError("Defo needs at least two time steps to decide")
    fallback, allowed_ids, t_cycles, f_cycles = _candidate_cycles(
        rich_trace, hardware, plus, bypass_style, attention_diff
    )

    names = rich_trace.layer_names()
    layer_col = rich_trace.col("layer_id")
    # Records in by-step order (stable within a step = original record order).
    order = np.argsort(step_col, kind="stable")

    # -- step 1: store Cycle_act (fallback-mode cycles) ---------------------
    cycle_act: Dict[str, float] = {}
    for i in order[step_col[order] == steps[0]]:
        cycle_act[names[layer_col[i]]] = float(f_cycles[i])

    # -- step 2: store Cycle_diff and decide --------------------------------
    cycle_diff: Dict[str, float] = {}
    decisions: Dict[str, ExecutionMode] = {}
    for i in order[step_col[order] == steps[1]]:
        name = names[layer_col[i]]
        cycle_diff[name] = float(t_cycles[i])
        act = cycle_act.get(name)
        if act is None or allowed_ids[i] != TEMPORAL_ID:
            decisions[name] = fallback
        else:
            decisions[name] = (
                ExecutionMode.TEMPORAL if act > cycle_diff[name] else fallback
            )

    # -- later steps: assign modes (static Defo or Dynamic-Ditto) ----------
    assigned: Dict[Tuple[str, int], ExecutionMode] = {}
    current = dict(decisions)
    correct = 0
    total = 0
    for i in order[step_col[order] > steps[1]]:
        name = names[layer_col[i]]
        step_id = int(step_col[i])
        allowed = MODES[allowed_ids[i]]
        mode = current.get(name, allowed)
        assigned[(name, step_id)] = mode
        # Oracle for accuracy accounting (Fig. 17): per-step argmin.
        tc = float(t_cycles[i])
        oracle = allowed if tc < float(f_cycles[i]) else fallback
        total += 1
        if oracle is mode or (
            oracle is not ExecutionMode.TEMPORAL
            and mode is not ExecutionMode.TEMPORAL
        ):
            correct += 1
        if dynamic and mode is ExecutionMode.TEMPORAL:
            act = cycle_act.get(name)
            if act is not None and tc > act:
                current[name] = fallback

    # -- lower the full trace ------------------------------------------------
    mode_ids = np.empty(len(rich_trace), dtype=np.int64)
    first_mask = step_col == steps[0]
    second_mask = step_col == steps[1]
    mode_ids[first_mask] = MODE_ID[fallback]
    mode_ids[second_mask] = allowed_ids[second_mask]
    for i in np.flatnonzero(~(first_mask | second_mask)):
        mode = assigned.get(
            (names[layer_col[i]], int(step_col[i])), MODES[allowed_ids[i]]
        )
        mode_ids[i] = MODE_ID[mode]

    trace = rich_trace.lower_modes(mode_ids, bypass_style=bypass_style)
    changed = [
        name
        for name, mode in decisions.items()
        if mode is not ExecutionMode.TEMPORAL
    ]
    return DefoReport(
        trace=trace,
        decisions=decisions,
        cycle_act=cycle_act,
        cycle_diff=cycle_diff,
        changed_layers=changed,
        accuracy=correct / total if total else 1.0,
        plus=plus,
        dynamic=dynamic,
        assigned=assigned,
    )


def run_ideal(
    rich_trace: RichTrace,
    hardware,
    plus: bool = False,
    bypass_style: str = "chained",
    attention_diff: bool = True,
) -> Trace:
    """Oracle lowering: per-layer, per-step argmin of the mode cycle costs.

    The first step still runs dense/spatial (there is nothing to difference
    against), matching the paper's Ideal-Ditto definition.
    """
    step_col = rich_trace.col("step_index")
    first_step = int(step_col.min()) if len(rich_trace) else 0
    fallback, allowed_ids, t_cycles, f_cycles = _candidate_cycles(
        rich_trace, hardware, plus, bypass_style, attention_diff
    )
    temporal_wins = (
        (step_col != first_step)
        & rich_trace.col("has_temporal")
        & (allowed_ids == TEMPORAL_ID)
        & (t_cycles < f_cycles)
    )
    mode_ids = np.where(temporal_wins, TEMPORAL_ID, MODE_ID[fallback])
    return rich_trace.lower_modes(mode_ids, bypass_style=bypass_style)
