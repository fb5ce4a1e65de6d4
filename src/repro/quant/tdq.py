"""Timestep-clustered quantization (Q-Diffusion / TDQ synergy).

The paper's Related Work section notes that Ditto composes with
timestep-specific quantization schemes: Q-Diffusion [50] and TDQ [80]
observe that activation ranges drift across the reverse process and assign
*different scaling factors to clusters of time steps*.  Ditto only needs
the scale to be shared *within* a cluster for its integer differences to be
exact; at a cluster boundary the layer falls back to one dense step (the
temporal state is invalidated because the integer grids differ).

:class:`TimestepClusteredQuantizer` implements exactly that contract:

* ``calibrate_clusters`` segments the trajectory into ``num_clusters``
  contiguous windows and fits one symmetric scale per window per layer
  (contiguous segmentation follows TDQ - ranges drift monotonically-ish,
  so k-means over time collapses to windows anyway);
* at run time every denoising step announces its denoiser-call index via
  :func:`set_active_step`; each quantizer serves the scale of the active
  cluster; crossing a boundary changes the scale, which the Q-layers detect
  (the cached previous input was produced under another grid) and handle by
  re-running dense - no approximation anywhere.

The accuracy/efficiency trade-off this buys (tighter scales per window vs
extra dense steps) is measured in ``benchmarks/test_ablation_tdq.py``.
"""

from __future__ import annotations

import threading
from typing import List, Optional

import numpy as np

from .quantizer import SymmetricQuantizer, quantize

__all__ = [
    "TimestepClusteredQuantizer",
    "cluster_bounds",
    "set_active_step",
    "active_step",
]

_step_state = threading.local()


def set_active_step(step_index) -> None:
    """Announce the current denoiser call index to clustered quantizers.

    ``step_index`` is an ``int`` (every row makes the same call - lockstep
    runs), ``None`` (no trajectory is active), or an integer array of
    per-row call indices (a continuous batching session whose rows each
    sit at their own step).  :meth:`GenerationPipeline.denoise_rows
    <repro.diffusion.pipeline.GenerationPipeline.denoise_rows>` announces
    before every evaluation; the trace step reads the same value.
    """
    _step_state.value = step_index


def active_step():
    return getattr(_step_state, "value", None)


def cluster_bounds(num_steps: int, num_clusters: int) -> List[int]:
    """Start indices of ``num_clusters`` contiguous step windows.

    Windows are as even as possible with the *larger* windows first
    (ceil-style edges): ``10`` steps over ``3`` clusters gives windows of
    4, 3 and 3 steps.  ``num_clusters`` is capped at ``num_steps`` so no
    window is ever empty.

    >>> cluster_bounds(10, 3)
    [0, 4, 7]
    """
    if num_clusters < 1:
        raise ValueError("need at least one cluster")
    num_clusters = min(num_clusters, num_steps)
    return [
        (i * num_steps + num_clusters - 1) // num_clusters
        for i in range(num_clusters)
    ]


class TimestepClusteredQuantizer(SymmetricQuantizer):
    """Symmetric quantizer whose scale depends on the active step cluster."""

    def __init__(self, bits: int = 8, num_clusters: int = 1) -> None:
        super().__init__(bits)
        if num_clusters < 1:
            raise ValueError("need at least one cluster")
        self.num_clusters = num_clusters
        self._bounds: List[int] = [0]
        self._cluster_scales: List[Optional[float]] = [None] * num_clusters
        self._observed: List[float] = [0.0] * num_clusters

    # -- calibration ---------------------------------------------------------
    def configure(self, num_steps: int) -> None:
        """Fix the step -> cluster mapping for a trajectory length."""
        self._bounds = cluster_bounds(num_steps, self.num_clusters)

    def cluster_of(self, step_index: int) -> int:
        cluster = 0
        for i, start in enumerate(self._bounds):
            if step_index >= start:
                cluster = i
        return cluster

    def observe_step(self, x: np.ndarray, step_index: int) -> None:
        cluster = self.cluster_of(step_index)
        peak = float(np.max(np.abs(x))) if x.size else 0.0
        self._observed[cluster] = max(self._observed[cluster], peak)

    def freeze_clusters(self) -> List[float]:
        """Fix every cluster's scale from its observed range."""
        scales = []
        for cluster in range(self.num_clusters):
            peak = self._observed[cluster]
            if peak <= 0.0:
                # Fall back to the widest observed range (or unit scale).
                peak = max(self._observed) or 1.0
            scales.append(peak / self.qmax)
        self._cluster_scales = scales
        self.scale = scales[0]
        return scales

    # -- runtime ----------------------------------------------------------
    @property
    def calibrated(self) -> bool:
        return all(s is not None for s in self._cluster_scales)

    def scale_for_step(self, step_index: Optional[int]) -> float:
        if step_index is None:
            step_index = 0
        cluster = self.cluster_of(step_index)
        scale = self._cluster_scales[cluster]
        if scale is None:
            raise RuntimeError("clustered quantizer used before calibration")
        return scale

    def scales_for_rows(self, steps: np.ndarray, x: np.ndarray):
        """Per-row scales for a batch whose rows sit at different steps.

        ``steps`` holds one step index per *pipeline* row; when the layer
        sees a stacked multiple of that batch (classifier-free guidance runs
        ``[cond; uncond]``) the row scales tile accordingly.  Collapses to a
        scalar when every row lands in the same cluster, which keeps lockstep
        batches on the exact arithmetic (and fast path) they always used.
        """
        clusters = np.searchsorted(self._bounds, steps, side="right") - 1
        batch = x.shape[0]
        if batch != clusters.shape[0]:
            if clusters.shape[0] == 0 or batch % clusters.shape[0]:
                raise RuntimeError(
                    f"per-row step vector of length {clusters.shape[0]} does "
                    f"not tile the layer batch {batch}"
                )
            clusters = np.tile(clusters, batch // clusters.shape[0])
        if np.all(clusters == clusters[0]):
            return self.scale_for_step(int(steps.reshape(-1)[0]))
        scales = np.asarray(self._cluster_scales, dtype=np.float64)[clusters]
        return scales.reshape((batch,) + (1,) * (x.ndim - 1))

    def ensure_scale(self, x: np.ndarray):
        step = active_step()
        if self.calibrated:
            if isinstance(step, np.ndarray):
                self.scale = self.scales_for_rows(step, x)
            else:
                self.scale = self.scale_for_step(step)
            return self.scale
        # Uncalibrated fallback: behave like the sticky base quantizer.
        return super().ensure_scale(x)

    def quantize(self, x: np.ndarray, out_dtype=None) -> np.ndarray:
        return quantize(x, self.ensure_scale(x), self.bits, out_dtype=out_dtype)

    def grid(self) -> tuple:
        return super().grid() + (tuple(self._cluster_scales), tuple(self._bounds))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TimestepClusteredQuantizer(bits={self.bits}, "
            f"clusters={self.num_clusters}, scales={self._cluster_scales})"
        )
