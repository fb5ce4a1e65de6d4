"""Stable content hashing for the engine-result cache.

A cache key must be reproducible across processes and sessions (so a second
``repro sweep`` or pytest session hits the entries the first one wrote) yet
change whenever anything that influences the computed result changes:

* the benchmark specification (model family, sampler, step counts, shapes),
* the run parameters (step overrides, clustering, calibration/run seeds,
  batch size),
* the code that produces the numbers.

The last point is covered by :func:`code_fingerprint`, which hashes the
source of every module in the ``repro`` package plus the cache schema
version.  Editing any source file therefore invalidates all prior entries -
the blunt but safe interpretation of "code-relevant config".
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional

from ..defaults import resolve_calibration_dtype
from ..nn.backends import get_backend

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "callable_fingerprint",
    "code_fingerprint",
    "stable_hash",
    "spec_signature",
    "engine_key",
    "engine_build_key",
    "plan_key",
    "similarity_key",
]

# Bump when the cached payload layout changes (e.g. new EngineResult fields
# that old pickles would silently lack).
CACHE_SCHEMA_VERSION = 1

_CODE_FINGERPRINT: Optional[str] = None


def code_fingerprint() -> str:
    """Hex digest over every ``repro`` source file (memoized per process)."""
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        package_root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        digest.update(f"schema={CACHE_SCHEMA_VERSION}".encode())
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(path.read_bytes())
        _CODE_FINGERPRINT = digest.hexdigest()
    return _CODE_FINGERPRINT


def callable_fingerprint(fn: Callable) -> str:
    """Stable identity for a spec's builder callable.

    Module-qualified name plus a hash of the callable's source, so editing a
    builder defined *outside* the ``repro`` package (custom specs, test
    helpers) still changes the cache key.  Callables whose source is
    unretrievable (builtins, C extensions) fall back to the name alone.
    """
    if isinstance(fn, functools.partial):
        # Partials have no source of their own; fingerprint the wrapped
        # callable plus the bound arguments so differently-configured
        # partials never share a key.
        bound = (fn.args, sorted(fn.keywords.items()))
        return f"partial({callable_fingerprint(fn.func)}, {bound!r})"
    ident = f"{getattr(fn, '__module__', '?')}.{getattr(fn, '__qualname__', '?')}"
    try:
        source = inspect.getsource(fn)
    except (OSError, TypeError):
        return ident
    return f"{ident}#{hashlib.sha256(source.encode()).hexdigest()[:16]}"


def _normalize(obj: Any) -> Any:
    """Reduce ``obj`` to JSON-serializable primitives, deterministically."""
    if isinstance(obj, Mapping):
        return {str(k): _normalize(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_normalize(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if hasattr(obj, "signature"):
        return _normalize(obj.signature())
    raise TypeError(f"cannot hash {type(obj).__name__!r} into a cache key")


def stable_hash(obj: Any) -> str:
    """SHA-256 hex digest of a canonical JSON rendering of ``obj``."""
    payload = json.dumps(_normalize(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def spec_signature(spec) -> Dict[str, Any]:
    """Cache-relevant description of a :class:`BenchmarkSpec`-like object."""
    if hasattr(spec, "signature"):
        return spec.signature()
    build = getattr(spec, "build_model", None)
    build_cond = getattr(spec, "build_conditioning", None)
    build_uncond = getattr(spec, "build_uncond_conditioning", None)
    return {
        "name": spec.name,
        "sampler": spec.sampler,
        "num_steps": spec.num_steps,
        # paper_steps feeds run-time step overrides ("paper steps" sweeps);
        # a duck-typed spec without it inherits num_steps, matching how the
        # engine falls back.
        "paper_steps": getattr(spec, "paper_steps", None),
        "sample_shape": list(spec.sample_shape),
        "dataset": getattr(spec, "dataset", ""),
        "latent": getattr(spec, "latent", False),
        "is_video": getattr(spec, "is_video", False),
        "builder": "" if build is None else callable_fingerprint(build),
        # Conditioning builders shape the sampled trajectory just as much as
        # the model builder; leaving them out aliased cached engines across
        # differently-conditioned duck-typed specs.
        "cond_builder": "" if build_cond is None else callable_fingerprint(build_cond),
        "guidance_scale": getattr(spec, "guidance_scale", None),
        "uncond_builder": (
            "" if build_uncond is None else callable_fingerprint(build_uncond)
        ),
        # Normalized like BenchmarkSpec.signature(): an explicit default pin
        # is behaviorally identical to None and must share cache entries.
        "calibration_dtype": resolve_calibration_dtype(spec),
    }


def engine_key(
    spec,
    num_steps: Optional[int] = None,
    calibrate: bool = True,
    calibration_seed: int = 11,
    step_clusters: int = 1,
    seed: int = 0,
    batch_size: int = 1,
    guidance_scale: Optional[float] = None,
    calibration_dtype: Optional[str] = None,
) -> str:
    """Cache key for one instrumented :class:`EngineResult`.

    ``calibration_dtype`` normalizes through the one shared
    :func:`repro.defaults.resolve_calibration_dtype` rule -
    exactly how ``DittoEngine.from_benchmark`` resolves it - so equivalent
    invocations share one entry while differently-calibrated engines can
    never collide.
    """
    resolved_cal_dtype = resolve_calibration_dtype(spec, calibration_dtype)
    return stable_hash(
        {
            "kind": "engine_result",
            "code": code_fingerprint(),
            "spec": spec_signature(spec),
            "num_steps": num_steps,
            "calibrate": calibrate,
            "calibration_seed": calibration_seed,
            "step_clusters": step_clusters,
            "seed": seed,
            "batch_size": batch_size,
            "guidance_scale": guidance_scale,
            "calibration_dtype": str(resolved_cal_dtype),
        }
    )


def engine_build_key(
    spec,
    num_steps: Optional[int] = None,
    calibrate: bool = True,
    calibration_seed: int = 11,
    step_clusters: int = 1,
    guidance_scale: Optional[float] = None,
    sampler: Optional[str] = None,
    sampler_eta: Optional[float] = None,
    calibration_dtype: Optional[str] = None,
) -> str:
    """Cache key for one built :class:`DittoEngine` *object*.

    Distinct from :func:`engine_key`: no run parameters (seed/batch size) -
    the engine build is what crash recovery reloads, and the same build
    serves any run.  Carries the sampler override because
    ``DittoEngine.from_benchmark`` accepts one (the run-result key predates
    that axis and never passes it).
    """
    resolved_cal_dtype = resolve_calibration_dtype(spec, calibration_dtype)
    return stable_hash(
        {
            "kind": "engine_build",
            "code": code_fingerprint(),
            "spec": spec_signature(spec),
            "num_steps": num_steps,
            "calibrate": calibrate,
            "calibration_seed": calibration_seed,
            "step_clusters": step_clusters,
            "guidance_scale": guidance_scale,
            "sampler": sampler,
            "sampler_eta": sampler_eta,
            "calibration_dtype": str(resolved_cal_dtype),
        }
    )


def plan_key(
    spec,
    num_steps: Optional[int] = None,
    calibrate: bool = True,
    calibration_seed: int = 11,
    step_clusters: int = 1,
    guidance_scale: Optional[float] = None,
    sampler: Optional[str] = None,
    sampler_eta: Optional[float] = None,
    calibration_dtype: Optional[str] = None,
    backend: Optional[str] = None,
    derivation_seed: int = 0,
    derivation_batch_size: int = 1,
    hardware: str = "Ditto",
    plan_format: int = 1,
) -> str:
    """Cache key for one :class:`~repro.core.plan.ExecutionPlan`.

    Same engine-construction axes as :func:`engine_build_key` (a plan is a
    property of the built engine, not of any one serving run), plus the
    *derivation* run parameters (``derivation_seed`` /
    ``derivation_batch_size`` - bitwidth stats depend on the sampled noise),
    the Defo hardware model, and the plan payload format.  Embeds
    :func:`code_fingerprint`, so every source edit strands stale plans
    exactly like every other cache entry.

    ``backend`` names the compute path the plan was derived on; there is
    one, so it only accepts ``"reference"`` and leaves the key unchanged.
    """
    if backend is not None:
        get_backend(backend)  # raises ValueError for any other name
    resolved_cal_dtype = resolve_calibration_dtype(spec, calibration_dtype)
    return stable_hash(
        {
            "kind": "execution_plan",
            "code": code_fingerprint(),
            "spec": spec_signature(spec),
            "num_steps": num_steps,
            "calibrate": calibrate,
            "calibration_seed": calibration_seed,
            "step_clusters": step_clusters,
            "guidance_scale": guidance_scale,
            "sampler": sampler,
            "sampler_eta": sampler_eta,
            "calibration_dtype": str(resolved_cal_dtype),
            "derivation_seed": derivation_seed,
            "derivation_batch_size": derivation_batch_size,
            "hardware": hardware,
            "plan_format": plan_format,
        }
    )


def similarity_key(spec, num_steps: int, seed: int = 1) -> str:
    """Cache key for one FP32 :class:`SimilarityReport`."""
    return stable_hash(
        {
            "kind": "similarity_report",
            "code": code_fingerprint(),
            "spec": spec_signature(spec),
            "num_steps": num_steps,
            "seed": seed,
        }
    )
