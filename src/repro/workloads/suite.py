"""The Table I benchmark suite (scaled-down).

Seven benchmarks matching the paper's table:

====== ======================= ============== ================
Abbr.  Model                   Dataset        Sampler & steps
====== ======================= ============== ================
DDPM   pixel-space UNet        CIFAR-10       DDIM, 100 steps
BED    latent UNet             LSUN-Bedroom   DDIM, 200 steps
CHUR   latent UNet             LSUN-Church    DDIM, 200 steps
IMG    conditional latent UNet ImageNet       DDIM, 20 steps
SDM    text-conditional UNet   COCO2017       PLMS, 50 steps
DiT    DiT-XL/2                ImageNet       DDIM, 250 steps
Latte  Latte-XL/2 (video)      UCF-101        DDIM, 20 steps
====== ======================= ============== ================

Step counts are scaled (roughly 10x down, preserving the relative ordering)
so the pure-numpy suite finishes in seconds; ``paper_steps`` records the
original counts and any experiment can override ``num_steps``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..models import zoo
from ..nn.module import Module

__all__ = ["BenchmarkSpec", "SUITE", "get_benchmark", "benchmark_names"]


def _class_context(label: int) -> np.ndarray:
    """IMG conditioning: a single constant class-embedding context token."""
    table = np.random.default_rng(100 + 0).normal(0.0, 0.5, (zoo.NUM_CLASSES, zoo.CONTEXT_DIM))
    return table[label][None, None, :]


def _text_context(prompt_index: int = 0) -> np.ndarray:
    from .prompts import sample_prompts

    encoder = zoo.build_text_encoder()
    return encoder.encode(sample_prompts(1, offset=prompt_index))


def _empty_text_context() -> dict:
    """SDM unconditional branch: the empty-prompt embedding (CFG null)."""
    encoder = zoo.build_text_encoder()
    return {"context": encoder.encode([""])}


@dataclass(frozen=True)
class BenchmarkSpec:
    """One row of Table I, scaled for the numpy substrate."""

    name: str
    # Human-facing only; never influences the computed result, so it is
    # deliberately absent from the cache-key signatures.
    description: str  # repro-lint: ignore[RPL003]
    dataset: str
    sampler: str
    num_steps: int
    paper_steps: int
    sample_shape: Tuple[int, ...]
    build_model: Callable[[], Module]
    build_conditioning: Callable[[], Optional[dict]]
    latent: bool = False
    is_video: bool = False
    # Classifier-free guidance: ``guidance_scale`` is the default (None keeps
    # plain conditional sampling); ``build_uncond_conditioning`` supplies the
    # unconditional branch and is required whenever guidance is requested,
    # either here or per-run via ``DittoEngine.from_benchmark``.
    guidance_scale: Optional[float] = None
    build_uncond_conditioning: Optional[Callable[[], Optional[dict]]] = None
    # Calibration-trajectory precision: ``None`` means the engine default
    # (the float32 fast path); set ``"float64"`` to pin a benchmark to the
    # legacy exact trajectory.  Overridable per run via
    # ``DittoEngine.from_benchmark(calibration_dtype=...)``.
    calibration_dtype: Optional[str] = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BenchmarkSpec({self.name}: {self.description}, "
            f"{self.sampler} x{self.num_steps})"
        )

    def signature(self) -> Dict[str, object]:
        """Stable, hashable identity for the runtime result cache.

        Callables are identified by module-qualified name plus a hash of
        their source (see :func:`repro.runtime.hashing.callable_fingerprint`),
        so editing a builder - even one defined outside the ``repro``
        package - invalidates cached results, while the signature stays
        identical across processes and sessions.
        """
        from ..defaults import resolve_calibration_dtype
        from ..runtime.hashing import callable_fingerprint

        return {
            "name": self.name,
            "dataset": self.dataset,
            "sampler": self.sampler,
            "num_steps": self.num_steps,
            "paper_steps": self.paper_steps,
            "sample_shape": list(self.sample_shape),
            "latent": self.latent,
            "is_video": self.is_video,
            "build_model": callable_fingerprint(self.build_model),
            "build_conditioning": callable_fingerprint(self.build_conditioning),
            "guidance_scale": self.guidance_scale,
            "build_uncond_conditioning": (
                None
                if self.build_uncond_conditioning is None
                else callable_fingerprint(self.build_uncond_conditioning)
            ),
            # Normalized through the one shared resolution rule: a spec
            # explicitly pinned to the engine default is behaviorally
            # identical to an unpinned one and must share its cache entries.
            "calibration_dtype": resolve_calibration_dtype(self),
        }


SUITE: Dict[str, BenchmarkSpec] = {
    "DDPM": BenchmarkSpec(
        name="DDPM",
        description="pixel-space unconditional diffusion (DDPM on CIFAR-10)",
        dataset="cifar10",
        sampler="ddim",
        num_steps=50,
        paper_steps=100,
        sample_shape=(3, 16, 16),
        build_model=zoo.build_ddpm_unet,
        build_conditioning=lambda: None,
    ),
    "BED": BenchmarkSpec(
        name="BED",
        description="latent-space unconditional diffusion (LSUN-Bedroom)",
        dataset="lsun_bedroom",
        sampler="ddim",
        num_steps=40,
        paper_steps=200,
        sample_shape=(4, 16, 16),
        build_model=lambda: zoo.build_latent_unet(seed=2),
        build_conditioning=lambda: None,
        latent=True,
    ),
    "CHUR": BenchmarkSpec(
        name="CHUR",
        description="latent-space unconditional diffusion (LSUN-Church)",
        dataset="lsun_church",
        sampler="ddim",
        num_steps=40,
        paper_steps=200,
        sample_shape=(4, 16, 16),
        build_model=lambda: zoo.build_latent_unet(seed=12),
        build_conditioning=lambda: None,
        latent=True,
    ),
    "IMG": BenchmarkSpec(
        name="IMG",
        description="class-conditional latent diffusion (ImageNet)",
        dataset="imagenet",
        sampler="ddim",
        num_steps=15,
        paper_steps=20,
        sample_shape=(4, 16, 16),
        build_model=lambda: zoo.build_conditional_unet(seed=3),
        build_conditioning=lambda: {"context": _class_context(3)},
        latent=True,
    ),
    "SDM": BenchmarkSpec(
        name="SDM",
        description="text-conditional stable-diffusion-style model (COCO)",
        dataset="coco2017",
        sampler="plms",
        num_steps=20,
        paper_steps=50,
        sample_shape=(4, 16, 16),
        build_model=lambda: zoo.build_conditional_unet(seed=13),
        build_conditioning=lambda: {"context": _text_context(0)},
        latent=True,
        build_uncond_conditioning=_empty_text_context,
    ),
    "DiT": BenchmarkSpec(
        name="DiT",
        description="diffusion transformer (DiT-XL/2 on ImageNet)",
        dataset="imagenet",
        sampler="ddim",
        num_steps=50,
        paper_steps=250,
        sample_shape=(4, 16, 16),
        build_model=zoo.build_dit,
        build_conditioning=lambda: {"y": np.array([3])},
        latent=True,
    ),
    "Latte": BenchmarkSpec(
        name="Latte",
        description="video diffusion transformer (Latte-XL/2 on UCF-101)",
        dataset="ucf101",
        sampler="ddim",
        num_steps=16,
        paper_steps=20,
        sample_shape=(4, 4, 16, 16),
        build_model=zoo.build_latte,
        build_conditioning=lambda: {"y": np.array([2])},
        latent=True,
        is_video=True,
    ),
}


def get_benchmark(name: str) -> BenchmarkSpec:
    try:
        return SUITE[name]
    except KeyError:
        raise ValueError(
            f"unknown benchmark {name!r}; choose from {benchmark_names()}"
        ) from None


def benchmark_names() -> List[str]:
    return list(SUITE)
