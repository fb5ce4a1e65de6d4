"""Result container produced by the hardware models.

A :class:`HardwareReport` is the per-record columns one hardware model
produced for one trace (stage cycles, energy components, bytes moved);
every aggregate and grouping is a column reduction.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

__all__ = ["HardwareReport", "pipelined_cycles"]


def pipelined_cycles(compute, memory, encode, vpu) -> np.ndarray:
    """Pipelined execution: the slowest stage bounds each record."""
    return np.maximum(np.maximum(compute, memory), np.maximum(encode, vpu))


class HardwareReport:
    """Aggregate outcome of running a full trace on one hardware model.

    ``columns`` holds one entry per trace record: ``compute`` / ``memory`` /
    ``encode`` / ``vpu`` stage cycles, their pipelined ``cycles``, the
    ``energy`` components (pJ) and ``bytes_moved``, plus ``step_index`` and
    ``layer_ids`` into ``layer_names`` for grouping.
    """

    def __init__(self, hardware: str, columns: dict) -> None:
        self.hardware = hardware
        self.columns = columns

    @classmethod
    def from_arrays(
        cls,
        hardware: str,
        layer_names: List[str],
        layer_ids: np.ndarray,
        step_index: np.ndarray,
        compute: np.ndarray,
        memory: np.ndarray,
        encode: np.ndarray,
        vpu: np.ndarray,
        energy: Dict[str, np.ndarray],
        bytes_moved: np.ndarray,
    ) -> "HardwareReport":
        """Build a report from per-record columns (the accelerator models)."""
        columns = {
            "layer_names": layer_names,
            "layer_ids": np.asarray(layer_ids),
            "step_index": np.asarray(step_index),
            "compute": np.asarray(compute, dtype=np.float64),
            "memory": np.asarray(memory, dtype=np.float64),
            "encode": np.asarray(encode, dtype=np.float64),
            "vpu": np.asarray(vpu, dtype=np.float64),
            "cycles": pipelined_cycles(compute, memory, encode, vpu),
            "energy": {k: np.asarray(v, dtype=np.float64) for k, v in energy.items()},
            "bytes_moved": np.asarray(bytes_moved),
        }
        return cls(hardware, columns)

    def __len__(self) -> int:
        return len(self.columns["step_index"])

    # -- cycles ----------------------------------------------------------
    @property
    def total_cycles(self) -> float:
        return float(self.columns["cycles"].sum())

    @property
    def compute_cycles(self) -> float:
        a = self.columns
        return float(np.minimum(a["compute"], a["cycles"]).sum())

    @property
    def stall_cycles(self) -> float:
        a = self.columns
        return float(np.maximum(a["memory"] - a["compute"], 0.0).sum())

    # -- energy / traffic -------------------------------------------------
    @property
    def total_energy_pj(self) -> float:
        return float(sum(arr.sum() for arr in self.columns["energy"].values()))

    def energy_breakdown_pj(self) -> Dict[str, float]:
        return {
            component: float(arr.sum())
            for component, arr in self.columns["energy"].items()
        }

    @property
    def total_bytes(self) -> int:
        return int(self.columns["bytes_moved"].sum())

    # -- comparisons --------------------------------------------------------
    def speedup_over(self, other: "HardwareReport") -> float:
        if self.total_cycles == 0:
            return float("inf")
        return other.total_cycles / self.total_cycles

    def relative_energy(self, other: "HardwareReport") -> float:
        if other.total_energy_pj == 0:
            return float("inf")
        return self.total_energy_pj / other.total_energy_pj

    def relative_memory_accesses(self, other: "HardwareReport") -> float:
        if other.total_bytes == 0:
            return float("inf")
        return self.total_bytes / other.total_bytes

    # -- per-layer views ---------------------------------------------------
    def cycles_by_layer(self) -> Dict[str, float]:
        a = self.columns
        sums = np.bincount(
            a["layer_ids"], weights=a["cycles"], minlength=len(a["layer_names"])
        )
        ids_present = np.unique(a["layer_ids"])
        return {a["layer_names"][i]: float(sums[i]) for i in ids_present}

    def cycles_by_step(self) -> Dict[int, float]:
        a = self.columns
        steps, inverse = np.unique(a["step_index"], return_inverse=True)
        sums = np.bincount(inverse, weights=a["cycles"])
        return {int(step): float(sums[i]) for i, step in enumerate(steps)}

    def summary(self) -> str:
        energy_uj = self.total_energy_pj / 1e6
        return (
            f"{self.hardware}: {self.total_cycles:,.0f} cycles "
            f"(compute {self.compute_cycles:,.0f}, stall {self.stall_cycles:,.0f}), "
            f"{energy_uj:,.2f} uJ, {self.total_bytes:,} bytes"
        )
