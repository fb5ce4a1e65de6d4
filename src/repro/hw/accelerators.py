"""Analytic cycle/energy models of the evaluated accelerators.

Modelling level (deliberately matched to what decides the paper's results):

* **Compute** - an adder-tree design processes one 4-bit operand per
  multiplier lane and pairs two lanes (plus shifter) per 8-bit operand;
  zero operands are skipped when the Encoding Unit supports it.  Cycle count
  is effective lane-operations divided by lane count.
* **Memory** - a bandwidth model: bytes moved / (bytes per cycle).  Temporal
  difference processing moves extra bytes (previous input + partial-sum
  state), which is what turns some layers memory-bound (paper Fig. 8/16).
* **Pipelining** - Encoding Unit, Compute Unit and Vector Processing Unit
  overlap; a layer costs the max of its stage times (paper Section V-A).

The models consume the columns of a hardware-facing
:class:`~repro.core.trace.Trace`: every equation is written once, as column
arithmetic over all records.  ``run`` prices a whole trace into a
:class:`~repro.hw.report.HardwareReport`; ``cycles_array`` returns just the
per-record pipelined cycles, which is what Defo compares.  Any execution
policy (dense / Diffy spatial / naive temporal / Defo / ideal oracle) can be
evaluated on any hardware by lowering the rich trace accordingly.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..core.trace import DENSE_ID, Trace
from .config import EnergyModel, HardwareConfig, get_config
from .report import HardwareReport, pipelined_cycles

__all__ = [
    "AdderTreeAccelerator",
    "CambriconDAccelerator",
    "GPUModel",
    "build_accelerator",
]

class AdderTreeAccelerator:
    """Generic adder-tree accelerator: covers ITC, Diffy, Ditto, DS/DB.

    Behaviour is derived from the :class:`HardwareConfig` flags:

    * ``mult_bits=8`` - every operand costs one lane-op (ITC, DS ablation).
    * ``mult_bits=4`` - low-bit operands cost one lane-op, full-bit two.
    * ``supports_zero_skip`` - zero operands cost nothing (Ditto, DS).
    * otherwise zeros cost a low-bit operation (Diffy, DB ablation).
    """

    def __init__(self, config: HardwareConfig) -> None:
        self.config = config
        self.name = config.name

    # -- per-stage models ---------------------------------------------------
    def _lane_ops_arrays(self, trace: Trace):
        """``(low, high, dense_mask, total)`` lane-op columns for a trace."""
        cfg = self.config
        total = (trace.col("macs") * trace.col("sub_ops")).astype(np.float64)
        dense = trace.col("mode") == DENSE_ID
        zero_frac, low_frac, high_frac = trace.operand_fractions()
        zero_cost = 0.0 if cfg.supports_zero_skip else 1.0
        low = np.where(dense, 0.0, total * (low_frac + zero_frac * zero_cost))
        high = np.where(dense, total, total * high_frac)
        return low, high, dense, total

    def compute_cycles_array(self, trace: Trace) -> np.ndarray:
        cfg = self.config
        low, high, _, _ = self._lane_ops_arrays(trace)
        if cfg.mult_bits >= 8:
            lane_ops = low + high
        else:
            lane_ops = low + 2.0 * high
        return lane_ops / cfg.num_mults

    def encode_cycles_array(self, trace: Trace) -> np.ndarray:
        dense = trace.col("mode") == DENSE_ID
        return np.where(dense, 0.0, trace.col("data_elems") / self.config.num_mults)

    def vpu_cycles_array(self, trace: Trace) -> np.ndarray:
        return trace.col("vpu_elems") / max(self.config.num_mults / 8.0, 1.0)

    def memory_cycles_array(self, trace: Trace) -> np.ndarray:
        return trace.bytes_total() / self.config.dram_bw_bytes_per_cycle

    def _stage_cycles(self, trace: Trace):
        """``(compute, memory, encode, vpu)`` per-record stage cycles."""
        return (
            self.compute_cycles_array(trace),
            self.memory_cycles_array(trace),
            self.encode_cycles_array(trace),
            self.vpu_cycles_array(trace),
        )

    def cycles_array(self, trace: Trace) -> np.ndarray:
        """Per-record pipelined cycle counts (max over the four stages)."""
        return pipelined_cycles(*self._stage_cycles(trace))

    def _energy_arrays(
        self, trace: Trace, cycles: np.ndarray
    ) -> Dict[str, np.ndarray]:
        cfg = self.config
        e: EnergyModel = cfg.energy
        low, high, dense, total = self._lane_ops_arrays(trace)
        if cfg.mult_bits >= 8:
            compute = (low + high) * e.mult8_pj
        else:
            compute = low * e.mult4_pj + high * e.mult8_pj
        bytes_total = trace.bytes_total()
        n = len(trace)
        return {
            "compute": compute,
            "encode": np.where(dense, 0.0, trace.col("data_elems") * e.encode_pj),
            "vpu": trace.col("vpu_elems") * e.vpu_pj,
            "defo": np.full(n, e.defo_pj),
            "sram": bytes_total * e.sram_byte_pj,
            "dram": bytes_total * e.dram_byte_pj,
            "leak": cycles * cfg.num_mults * e.leak_per_mult_cycle_pj,
        }

    # -- driver ------------------------------------------------------------
    def run(self, trace: Trace) -> HardwareReport:
        compute, memory, encode, vpu = self._stage_cycles(trace)
        cycles = pipelined_cycles(compute, memory, encode, vpu)
        return HardwareReport.from_arrays(
            hardware=self.name,
            layer_names=trace.layer_names(),
            layer_ids=trace.col("layer_id"),
            step_index=trace.col("step_index"),
            compute=compute,
            memory=memory,
            encode=encode,
            vpu=vpu,
            energy=self._energy_arrays(trace, cycles),
            bytes_moved=trace.bytes_total(),
        )


class CambriconDAccelerator(AdderTreeAccelerator):
    """Cambricon-D: normal A4W8 PEs plus dedicated A8W8 outlier PEs.

    Differences processed on the normal array (no zero skipping); full
    bit-width differences are routed to the outlier PEs, so throughput is
    ``max(normal_work / normal_lanes, outlier_work / outlier_lanes)``.
    Original-activation (dense) execution must run entirely on the outlier
    array - the normal PEs lack the lane-pairing shifters of the Ditto PE -
    which is exactly the paper's criticism of outlier-PE designs
    (Section VI-B, Fig. 15).
    """

    def compute_cycles_array(self, trace: Trace) -> np.ndarray:
        cfg = self.config
        low, high, dense, total = self._lane_ops_arrays(trace)
        routed = np.maximum(low / cfg.num_mults, high / cfg.outlier_mults)
        return np.where(dense, total / cfg.outlier_mults, routed)

    def _energy_arrays(
        self, trace: Trace, cycles: np.ndarray
    ) -> Dict[str, np.ndarray]:
        breakdown = super()._energy_arrays(trace, cycles)
        _, _, dense, total = self._lane_ops_arrays(trace)
        breakdown["compute"] = np.where(
            dense, total * self.config.energy.mult8_pj, breakdown["compute"]
        )
        return breakdown


class GPUModel:
    """Roofline-with-launch-overhead model of an A100-class GPU.

    Small diffusion layers underutilize GPU tensor cores and pay a per-kernel
    launch cost; both effects are modelled with two constants.  The GPU only
    serves as the normalization anchor of Fig. 13, so fidelity beyond "slower
    and far less energy-efficient than the dedicated designs" is not needed.
    """

    name = "GPU"

    def __init__(
        self,
        peak_macs_per_cycle: float = 312000.0,  # INT8 TC peak at 1 GHz equiv.
        # Utilization reflects the small-kernel regime of diffusion denoisers
        # (the paper's GPU baseline also runs far below peak on these layers).
        utilization: float = 0.06,
        launch_cycles: float = 25.0,
        power_w: float = 400.0,
        freq_ghz: float = 1.0,
    ) -> None:
        self.peak_macs_per_cycle = peak_macs_per_cycle
        self.utilization = utilization
        self.launch_cycles = launch_cycles
        self.power_w = power_w
        self.freq_ghz = freq_ghz

    def cycles_array(self, trace: Trace) -> np.ndarray:
        """Per-record cycles: compute at the utilized peak plus the launch."""
        return (
            trace.col("macs") / (self.peak_macs_per_cycle * self.utilization)
            + self.launch_cycles
        )

    def run(self, trace: Trace) -> HardwareReport:
        compute = self.cycles_array(trace)
        seconds = compute / (self.freq_ghz * 1e9)
        zeros = np.zeros(len(trace))
        # The GPU model executes the original activations: no difference
        # traffic, so bytes_extra is excluded from bytes moved.
        bytes_moved = (
            trace.col("bytes_in") + trace.col("bytes_weight") + trace.col("bytes_out")
        )
        return HardwareReport.from_arrays(
            hardware=self.name,
            layer_names=trace.layer_names(),
            layer_ids=trace.col("layer_id"),
            step_index=trace.col("step_index"),
            compute=compute,
            memory=zeros,
            encode=zeros,
            vpu=zeros,
            energy={"gpu": self.power_w * seconds * 1e12},
            bytes_moved=bytes_moved,
        )


def build_accelerator(name: str, config: Optional[HardwareConfig] = None):
    """Factory for the Table III hardware models (plus the GPU anchor)."""
    if name == "GPU":
        return GPUModel()
    config = config or get_config(name)
    if name == "Cambricon-D":
        return CambriconDAccelerator(config)
    return AdderTreeAccelerator(config)
