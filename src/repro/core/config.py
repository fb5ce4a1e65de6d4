"""EngineConfig - the one value that names a built engine.

Everything Ditto measures comes out of one quantized engine, and what that
engine computes is fixed by a handful of build axes: step count, sampler
(and its eta), classifier-free guidance, calibration (on/off, seed,
trajectory precision) and the TDQ step-cluster count.  :class:`EngineConfig`
holds those axes *resolved*: ``DittoEngine.from_model`` records it as
``engine.config``, and every cache key (:mod:`repro.runtime.hashing`),
runner, serve and CLI path reads the engine's identity from it.

:meth:`EngineConfig.resolve` is the single place where an unset (``None``)
axis becomes the benchmark spec's default.  The config holds no spec
object: Table I specs carry lambda builders that do not pickle, and built
engines are pickled into the result cache.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Dict, Optional

__all__ = ["DEFAULT_CALIBRATION_DTYPE", "EngineConfig"]

# The float32 calibration trajectory: observed peaks move by ulps, far below
# quantization resolution (see repro.quant.calibration.calibration_precision);
# "float64" is the legacy exact trajectory.
DEFAULT_CALIBRATION_DTYPE = "float32"

# Axes whose unset value defaults from the spec rather than from the class.
_SPEC_DEFAULTS = ("num_steps", "sampler", "guidance_scale", "calibration_dtype")


@dataclass(frozen=True, kw_only=True)
class EngineConfig:
    """The resolved build axes of one engine."""

    num_steps: int
    calibrate: bool = True
    calibration_seed: int = 11
    calibration_dtype: str = DEFAULT_CALIBRATION_DTYPE
    step_clusters: int = 1
    guidance_scale: Optional[float] = None
    sampler: str
    sampler_eta: Optional[float] = None

    @classmethod
    def resolve(cls, spec, **axes) -> "EngineConfig":
        """The config a build of ``spec`` with these axis overrides uses.

        An axis passed as ``None`` (or not at all) takes the spec's default
        for steps, sampler, guidance and calibration dtype, and the class
        default otherwise.  Unknown axis names raise :class:`TypeError`.
        """
        unknown = sorted(set(axes) - {f.name for f in fields(cls)})
        if unknown:
            raise TypeError(f"unknown engine config axes: {', '.join(unknown)}")
        chosen = {name: getattr(spec, name) for name in _SPEC_DEFAULTS}
        chosen.update((name, value) for name, value in axes.items() if value is not None)
        return cls(**{name: value for name, value in chosen.items() if value is not None})

    def axes(self) -> Dict[str, object]:
        """The axes as keyword arguments (``resolve`` maps them back to self)."""
        return asdict(self)
