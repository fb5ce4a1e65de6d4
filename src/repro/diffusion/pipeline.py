"""End-to-end reverse-diffusion driver.

:class:`GenerationPipeline` owns the denoising model, the sampler, and the
conditioning, and walks the reverse process from pure noise to a sample.  It
is deliberately model-agnostic: every benchmark in Table I - pixel-space
DDPM, latent-space LDMs, Stable-Diffusion-style text conditioning, DiT and
Latte transformers - runs through this one loop, which is exactly the setting
in which the Ditto observation (adjacent time steps see nearly identical
layer inputs) arises.

Every driver takes the same step, :meth:`GenerationPipeline.denoise_rows`:
``generate`` loops it in lockstep, and a continuous-batching session calls
it for rows that each sit at their own step.  It announces each denoiser
evaluation's per-row call index, which TDQ cluster scales and the trace
step read; the analysis tooling uses layer forward hooks to capture
activations.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.module import Module
from .samplers import Sampler
from .schedule import DiffusionSchedule

__all__ = ["GenerationPipeline"]


class GenerationPipeline:
    """Drives ``sampler`` over ``model`` to generate samples.

    Parameters
    ----------
    model:
        A denoising module whose ``forward(x, t, **cond)`` returns the
        predicted noise ``eps``.
    sampler:
        One of the samplers from :mod:`repro.diffusion.samplers`.
    sample_shape:
        Shape of a single sample *without* the batch dimension, e.g.
        ``(3, 16, 16)`` for pixel space or ``(4, 8, 8)`` for latents.
    conditioning:
        Extra keyword arguments forwarded to the model on every call (class
        labels, text context, ...).  Constant across time steps - the property
        Ditto exploits for cross-attention K'/V'.
    """

    def __init__(
        self,
        model: Module,
        sampler: Sampler,
        sample_shape,
        conditioning: Optional[Dict[str, np.ndarray]] = None,
        guidance_scale: Optional[float] = None,
        uncond_conditioning: Optional[Dict[str, np.ndarray]] = None,
    ) -> None:
        self.model = model
        self.sampler = sampler
        self.schedule: DiffusionSchedule = sampler.schedule
        self.sample_shape = tuple(sample_shape)
        self.conditioning = dict(conditioning or {})
        if guidance_scale is not None and uncond_conditioning is None:
            raise ValueError(
                "classifier-free guidance needs uncond_conditioning "
                "(e.g. the empty-prompt embedding or the null class)"
            )
        self.guidance_scale = guidance_scale
        self.uncond_conditioning = dict(uncond_conditioning or {})
        if guidance_scale is not None:
            # The CFG merge concatenates cond[key] with uncond[key] per key:
            # a key missing from one dict would either be silently dropped or
            # blow up deep inside the step loop, so mismatches fail here.
            cond_keys = set(self.conditioning)
            uncond_keys = set(self.uncond_conditioning)
            if cond_keys != uncond_keys:
                missing = sorted(cond_keys - uncond_keys)
                extra = sorted(uncond_keys - cond_keys)
                raise ValueError(
                    "conditioning and uncond_conditioning must have identical "
                    f"keys for classifier-free guidance; missing from uncond: "
                    f"{missing or 'none'}, only in uncond: {extra or 'none'}"
                )
        # Tiled / CFG-merged conditioning per batch size.  Memoized so every
        # time step hands the model the *same array objects*: cross-attention
        # caches the constant K'/V' projections keyed by context identity, and
        # rebuilding the tiles each step would silently defeat that cache for
        # batch > 1 and for every CFG run.
        self._cond_cache: Dict[tuple, Dict[str, np.ndarray]] = {}

    @staticmethod
    def _tile_cond(cond: Dict[str, np.ndarray], batch: int) -> Dict[str, np.ndarray]:
        """Broadcast batch-1 conditioning tensors to the sample batch."""
        tiled = {}
        for key, value in cond.items():
            value = np.asarray(value)
            if value.ndim == 0:
                raise ValueError(
                    f"conditioning {key!r} is 0-d; conditioning tensors need "
                    "a leading batch dimension (reshape scalars to (1, ...))"
                )
            if value.shape[0] == 1 and batch > 1:
                value = np.repeat(value, batch, axis=0)
            elif value.shape[0] != batch:
                raise ValueError(
                    f"conditioning {key!r} has batch dimension "
                    f"{value.shape[0]} (shape {value.shape}); expected 1 or "
                    f"the sample batch size {batch}"
                )
            tiled[key] = value
        return tiled

    def _cached_cond(self, which: str, batch: int) -> Dict[str, np.ndarray]:
        """Memoized tiled (or CFG-stacked) conditioning for ``batch``."""
        key = (which, batch)
        cached = self._cond_cache.get(key)
        if cached is not None:
            return cached
        if which == "cond":
            built = self._tile_cond(self.conditioning, batch)
        elif which == "uncond":
            built = self._tile_cond(self.uncond_conditioning, batch)
        else:  # "merged": the [cond; uncond] stacked-batch layout
            cond = self._cached_cond("cond", batch)
            uncond = self._cached_cond("uncond", batch)
            built = {
                name: np.concatenate([cond[name], uncond[name]], axis=0)
                for name in cond
            }
        self._cond_cache[key] = built
        return built

    # -- model invocation -----------------------------------------------
    def predict_noise(self, x: np.ndarray, t: int) -> np.ndarray:
        """One denoiser evaluation; applies classifier-free guidance if set.

        CFG runs the conditional and unconditional branches as one stacked
        batch (``[cond; uncond]``).  The stacking is what lets the Ditto
        temporal state stay valid: every time step sees the same layout, so
        each batch element differences against its own previous-step value.
        """
        return self.predict_noise_rows(
            x, np.full(x.shape[0], t, dtype=np.float64)
        )

    def predict_noise_rows(self, x: np.ndarray, t_rows: np.ndarray) -> np.ndarray:
        """One denoiser evaluation with a *per-row* timestep vector.

        The continuous-batching path: every batch row may sit at its own
        timestep (the time embedding is computed per element anyway, and all
        layer arithmetic is row-independent).  ``predict_noise`` is the
        lockstep special case.
        """
        batch = x.shape[0]
        t_array = np.asarray(t_rows, dtype=np.float64)
        if t_array.shape != (batch,):
            raise ValueError(
                f"t_rows must have shape ({batch},), got {t_array.shape}"
            )
        if self.guidance_scale is None or self.guidance_scale == 1.0:
            return self.model(x, t_array, **self._cached_cond("cond", batch))
        stacked = np.concatenate([x, x], axis=0)
        merged = self._cached_cond("merged", batch)
        t_stacked = np.concatenate([t_array, t_array])
        eps = self.model(stacked, t_stacked, **merged)
        eps_cond, eps_uncond = eps[:batch], eps[batch:]
        return eps_uncond + self.guidance_scale * (eps_cond - eps_uncond)

    def num_model_calls(self) -> int:
        """Total denoiser evaluations for one trajectory (PLMS warmup incl.)."""
        return int(self.sampler.call_index(len(self.sampler.timesteps)))

    # -- stepping -------------------------------------------------------
    def denoise_rows(
        self,
        x: np.ndarray,
        steps: np.ndarray,
        rngs: Sequence[Optional[np.random.Generator]],
        histories: Sequence[tuple],
    ) -> Tuple[np.ndarray, List[tuple]]:
        """One reverse step for rows that may each sit at their own step.

        Row ``r`` is at step ``steps[r]`` with sampler history
        ``histories[r]`` and noise stream ``rngs[r]`` (rows may share one).
        One :meth:`predict_noise_rows` call covers every row, a second only
        the rows at step 0 of a warmup sampler (PLMS's improved Euler); then
        each row takes its sampler update.  Each evaluation first announces
        its rows' denoiser-call indices (an ``int`` when all agree) through
        :func:`repro.quant.tdq.set_active_step`, which TDQ cluster scales and
        the trace step read.  Returns ``(x_next, histories)`` and leaves the
        inputs untouched, so a failed step can be retried as is.
        """
        from ..quant.tdq import set_active_step

        sampler = self.sampler
        steps = np.asarray(steps)
        calls = sampler.call_index(steps)
        eps_next = {}  # row -> its warmup evaluation

        def announce(rows: np.ndarray) -> None:
            set_active_step(int(rows[0]) if (rows == rows[0]).all() else rows)

        try:
            announce(calls)
            eps = self.predict_noise_rows(
                x, sampler.timesteps[steps].astype(np.float64)
            )
            if sampler.warmup and (steps == 0).any():
                warm = np.flatnonzero(steps == 0)
                x_warm, t_warm = sampler.warmup_point(eps[warm], x[warm])
                announce(calls[warm] + 1)
                eps_warm = self.predict_noise_rows(
                    x_warm, np.full(warm.size, t_warm, dtype=np.float64)
                )
                eps_next = {r: eps_warm[k : k + 1] for k, r in enumerate(warm)}
        finally:
            set_active_step(None)
        return sampler.step_rows(eps, steps, x, rngs, histories, eps_next)

    # -- generation -------------------------------------------------------
    def generate(
        self,
        batch_size: int = 1,
        rng: Optional[np.random.Generator] = None,
        x_init: Optional[np.ndarray] = None,
        rngs: Optional[Sequence[np.random.Generator]] = None,
    ) -> np.ndarray:
        """Run the full reverse process and return the generated batch.

        Each row draws its initial noise (unless ``x_init`` is given) and
        its sampler noise from ``rngs[r]``; without ``rngs`` every row
        shares ``rng``, which draws exactly what one batch-wide draw would
        (standard-normal draws are chunk-invariant).
        """
        rng = rng or np.random.default_rng(0)
        if rngs is None:
            rngs = [rng] * (batch_size if x_init is None else len(x_init))
        if x_init is None:
            x = np.concatenate(
                [g.standard_normal((1,) + self.sample_shape) for g in rngs],
                axis=0,
            )
        else:
            x = np.array(x_init, dtype=np.float64)
            if x.shape[1:] != self.sample_shape:
                raise ValueError(
                    f"x_init shape {x.shape[1:]} != sample shape {self.sample_shape}"
                )
        histories: List[tuple] = [()] * x.shape[0]
        for index in range(len(self.sampler.timesteps)):
            x, histories = self.denoise_rows(
                x, np.full(x.shape[0], index), rngs, histories
            )
        return x
