"""Offline calibration of input scales (Q-Diffusion-style).

Q-Diffusion calibrates scaling factors offline by running the FP32 model
over representative reverse trajectories.  What Ditto needs from that
procedure is a per-layer scale *shared by adjacent time steps*, so that the
quantized temporal difference ``q_t - q_{t+1}`` is an exact integer.  This
module reproduces that: it hooks every linear layer of the FP32 model, runs
one or more short trajectories, records per-layer input ranges, and emits a
``{layer_name: scale}`` table consumable by
:func:`repro.quant.qlayers.quantize_model`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, List

import numpy as np

from ..nn import functional as F
from ..nn import sanitizer
from ..nn.attention import Attention
from ..nn.layers import Conv2d, Linear
from ..nn.module import Module
from .quantizer import SymmetricQuantizer

__all__ = [
    "CalibrationCollector",
    "calibrate_model",
    "calibration_precision",
]


@contextmanager
def calibration_precision(model: Module, pipeline, dtype):
    """Run the calibration trajectory in ``dtype`` (the float32 fast path).

    The FP32 calibration trajectory only exists to observe per-layer
    activation peaks; it does not feed samples to anyone.  Running it in
    float32 instead of float64 halves the memory traffic of every kernel in
    the trajectory - the dominant cold-build cost - while moving the
    observed peaks (and therefore the quantization scales) by at most a few
    ulps of float32, orders of magnitude below quantization resolution
    (bounds pinned per benchmark in ``tests/test_hotloop_numerics.py``).

    Within the context:

    * every :class:`~repro.nn.module.Parameter` and every plain float64
      ``ndarray`` module attribute (DiT/Latte positional tables) is swapped
      for a float32 copy,
    * the pipeline's conditioning tensors are cast (and the tiled-cond
      memo cleared, both on entry and exit, so no float32 tile leaks into
      the quantized run),
    * ``pipeline.predict_noise_rows`` (the model entry of every step) casts
      the sampler's float64 state to ``dtype`` at the model boundary, and
    * sinusoidal embeddings emit ``dtype`` (the one in-model float64
      source), via :func:`repro.nn.functional.set_embedding_dtype`.

    Everything is restored on exit - the original float64 weights are kept
    by reference, so quantization afterwards sees bit-identical parameters.
    ``dtype=float64`` makes the context a no-op (the escape hatch).
    """
    dt = np.dtype(dtype)
    if dt == np.float64:
        yield
        return
    if dt != np.float32:
        raise ValueError(
            f"calibration dtype must be float32 or float64, got {dt}"
        )
    # The save lists build incrementally INSIDE the try block: if any cast
    # raises mid-setup (e.g. MemoryError on a large positional table), the
    # finally still restores everything swapped so far - a user-owned model
    # must never come back half-cast to float32.
    saved_params: List[tuple] = []
    seen_params = set()
    saved_attrs: List[tuple] = []
    saved_cond: List[tuple] = []
    prev_predict = pipeline.__dict__.get("predict_noise_rows")
    prev_embed = F.embedding_dtype()
    try:
        for _, param in model.named_parameters():
            if id(param) in seen_params:
                continue
            seen_params.add(id(param))
            if param.data.dtype == np.float64:
                saved_params.append((param, param.data))
                param.data = param.data.astype(dt)
        for _, module in model.named_modules():
            for key, value in list(vars(module).items()):
                if isinstance(value, np.ndarray) and value.dtype == np.float64:
                    saved_attrs.append((module, key, value))
                    # Bypass Module.__setattr__'s registration bookkeeping.
                    module.__dict__[key] = value.astype(dt)
        for cond in (pipeline.conditioning, pipeline.uncond_conditioning):
            for key, value in cond.items():
                if isinstance(value, np.ndarray) and value.dtype == np.float64:
                    saved_cond.append((cond, key, value))
                    cond[key] = value.astype(dt)
        pipeline._cond_cache.clear()
        original_predict = pipeline.predict_noise_rows

        def cast_predict(x: np.ndarray, t_rows) -> np.ndarray:
            return original_predict(np.asarray(x, dtype=dt), t_rows)

        pipeline.predict_noise_rows = cast_predict
        F.set_embedding_dtype(dt)
        # Mark the dynamic extent for the opt-in runtime sanitizer
        # (repro.nn.sanitizer): under REPRO_SANITIZE=1 any float64 array
        # reaching a kernel in here is a promotion leak and raises.
        with sanitizer.calibration_region(dt):
            yield
    finally:
        F.set_embedding_dtype(prev_embed)
        if prev_predict is None:
            pipeline.__dict__.pop("predict_noise_rows", None)
        else:
            pipeline.predict_noise_rows = prev_predict
        for cond, key, value in saved_cond:
            cond[key] = value
        for module, key, value in saved_attrs:
            module.__dict__[key] = value
        for param, data in saved_params:
            param.data = data
        pipeline._cond_cache.clear()


class CalibrationCollector:
    """Hooks a float model and accumulates per-layer input ranges."""

    def __init__(self, model: Module, bits: int = 8) -> None:
        self.model = model
        self.bits = bits
        self._quantizers: Dict[str, SymmetricQuantizer] = {}
        self._removers: List[Callable[[], None]] = []

    def __enter__(self) -> "CalibrationCollector":
        for name, module in self.model.named_modules():
            if isinstance(module, (Linear, Conv2d)) or (
                isinstance(module, Attention) and not module._modules
            ):
                self._removers.append(
                    module.register_forward_hook(self._make_hook(name))
                )
        return self

    def __exit__(self, *exc_info) -> None:
        for remove in self._removers:
            remove()
        del self._removers[:]

    def _make_hook(self, name: str):
        def hook(_module, inputs, _output) -> None:
            if not inputs:
                return
            x = inputs[0]
            if not isinstance(x, np.ndarray):
                return
            quantizer = self._quantizers.setdefault(
                name, SymmetricQuantizer(self.bits)
            )
            quantizer.observe(x)

        return hook

    def scales(self) -> Dict[str, float]:
        return {
            name: quantizer.freeze()
            for name, quantizer in self._quantizers.items()
        }


def calibrate_model(
    model: Module,
    run_fn: Callable[[], None],
    bits: int = 8,
) -> Dict[str, float]:
    """Run ``run_fn`` (e.g. a short FP32 trajectory) and return input scales.

    Example::

        scales = calibrate_model(fp32_unet, lambda: pipeline.generate(1, rng))
        qmodel = quantize_model(fp32_unet, calibration=scales)
    """
    with CalibrationCollector(model, bits) as collector:
        run_fn()
    return collector.scales()


class ClusteredCalibrationCollector:
    """Per-timestep-cluster calibration (Q-Diffusion / TDQ synergy).

    Hooks the FP32 model like :class:`CalibrationCollector`, but buckets the
    observed ranges by the *active step* announced through
    :func:`repro.quant.tdq.set_active_step`, producing one
    :class:`~repro.quant.tdq.TimestepClusteredQuantizer` per layer.
    """

    def __init__(
        self,
        model: Module,
        num_steps: int,
        num_clusters: int,
        bits: int = 8,
    ) -> None:
        from .tdq import TimestepClusteredQuantizer

        self.model = model
        self.num_steps = num_steps
        self.num_clusters = num_clusters
        self.bits = bits
        self._quantizer_cls = TimestepClusteredQuantizer
        self._quantizers: Dict[str, "TimestepClusteredQuantizer"] = {}
        self._removers: List[Callable[[], None]] = []

    def __enter__(self) -> "ClusteredCalibrationCollector":
        for name, module in self.model.named_modules():
            if isinstance(module, (Linear, Conv2d)):
                self._removers.append(
                    module.register_forward_hook(self._make_hook(name))
                )
        return self

    def __exit__(self, *exc_info) -> None:
        for remove in self._removers:
            remove()
        del self._removers[:]

    def _get(self, name: str):
        quantizer = self._quantizers.get(name)
        if quantizer is None:
            quantizer = self._quantizer_cls(self.bits, self.num_clusters)
            quantizer.configure(self.num_steps)
            self._quantizers[name] = quantizer
        return quantizer

    def _make_hook(self, name: str):
        from .tdq import active_step

        def hook(_module, inputs, _output) -> None:
            if not inputs or not isinstance(inputs[0], np.ndarray):
                return
            step = active_step() or 0
            self._get(name).observe_step(inputs[0], step)

        return hook

    def quantizers(self) -> Dict[str, "SymmetricQuantizer"]:
        """Freeze and return the per-layer clustered quantizers."""
        for quantizer in self._quantizers.values():
            quantizer.freeze_clusters()
        return dict(self._quantizers)


def calibrate_model_clustered(
    model: Module,
    run_fn: Callable[[], None],
    num_steps: int,
    num_clusters: int,
    bits: int = 8,
) -> Dict[str, "SymmetricQuantizer"]:
    """Clustered counterpart of :func:`calibrate_model`.

    ``run_fn`` must announce steps via ``repro.quant.tdq.set_active_step``
    (every step of ``GenerationPipeline.generate`` does).
    """
    with ClusteredCalibrationCollector(model, num_steps, num_clusters, bits) as c:
        run_fn()
    return c.quantizers()
