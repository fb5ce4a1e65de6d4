"""JSON export of traces, Defo reports, and hardware reports.

Gives studies durable, diffable artifacts: a rich trace collapses to
per-layer-step operand statistics, a hardware report to its cycle/energy
breakdown.  Everything is plain JSON-serializable dicts, so results can be
archived, compared across runs, or post-processed outside this library.
"""

from __future__ import annotations

import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Dict, Union

from .core.bitwidth import BitWidthStats
from .core.defo import DefoReport
from .core.trace import RichLayerStep, RichTrace
from .hw.report import HardwareReport

__all__ = [
    "stats_to_dict",
    "rich_step_to_dict",
    "trace_to_dict",
    "hardware_report_to_dict",
    "defo_report_to_dict",
    "dump_json",
    "dump_pickle",
    "load_pickle",
]

PathLike = Union[str, Path]


def stats_to_dict(stats: BitWidthStats) -> Dict[str, int]:
    return {
        "total": stats.total,
        "zero": stats.zero,
        "low": stats.low,
        "high": stats.high,
    }


def rich_step_to_dict(step: RichLayerStep) -> Dict[str, object]:
    return {
        "step_index": step.step_index,
        "layer_name": step.layer_name,
        "kind": step.kind,
        "macs": step.macs,
        "in_elems": step.in_elems,
        "out_elems": step.out_elems,
        "weight_elems": step.weight_elems,
        "data_elems": step.data_elems,
        "stats_dense": stats_to_dict(step.stats_dense),
        "stats_spatial": stats_to_dict(step.stats_spatial),
        "stats_temporal": (
            None if step.stats_temporal is None else stats_to_dict(step.stats_temporal)
        ),
        "sub_ops_temporal": step.sub_ops_temporal,
        "vpu_elems": step.vpu_elems,
        "nonlinear_after": step.nonlinear_after,
        "chained_input": step.chained_input,
        "producer_kind": step.producer_kind,
    }


def trace_to_dict(trace: RichTrace) -> Dict[str, object]:
    return {
        "num_steps": trace.num_steps(),
        "num_records": len(trace),
        "total_macs": trace.total_macs(),
        "records": [rich_step_to_dict(step) for step in trace],
    }


def hardware_report_to_dict(report: HardwareReport) -> Dict[str, object]:
    return {
        "hardware": report.hardware,
        "total_cycles": report.total_cycles,
        "compute_cycles": report.compute_cycles,
        "stall_cycles": report.stall_cycles,
        "total_energy_pj": report.total_energy_pj,
        "energy_breakdown_pj": report.energy_breakdown_pj(),
        "total_bytes": report.total_bytes,
        "cycles_by_step": {
            str(step): cycles for step, cycles in report.cycles_by_step().items()
        },
    }


def defo_report_to_dict(report: DefoReport) -> Dict[str, object]:
    return {
        "plus": report.plus,
        "dynamic": report.dynamic,
        "accuracy": report.accuracy,
        "changed_fraction": report.changed_fraction,
        "decisions": {name: str(mode) for name, mode in report.decisions.items()},
        "cycle_act": dict(report.cycle_act),
        "cycle_diff": dict(report.cycle_diff),
        "changed_layers": list(report.changed_layers),
    }


def dump_json(payload: Dict[str, object], path: PathLike) -> None:
    """Write a payload produced by the ``*_to_dict`` helpers to disk."""
    with open(str(path), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def dump_pickle(obj: object, path: PathLike) -> None:
    """Atomically pickle ``obj`` to ``path`` (parent dirs created).

    Used by the runtime result cache: write-to-temp + ``os.replace`` means a
    concurrent reader never observes a half-written entry, and two writers
    racing on the same key both leave a complete pickle behind.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            pickle.dump(obj, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp_name, str(path))
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def load_pickle(path: PathLike) -> object:
    """Load a pickle written by :func:`dump_pickle`."""
    with open(str(path), "rb") as fh:
        return pickle.load(fh)
