"""Stable content hashing for the engine-result cache.

A cache key must be reproducible across processes and sessions (so a second
``repro sweep`` or pytest session hits the entries the first one wrote) yet
change whenever anything that influences the computed result changes:

* the benchmark specification (model family, sampler, step counts, shapes),
* the engine's build axes - one resolved
  :class:`~repro.core.config.EngineConfig` - plus the run axes of the
  result kind (run seed and batch size, plan derivation parameters),
* the code that produces the numbers.

The last point is covered by :func:`code_fingerprint`, which hashes the
source of every module in the ``repro`` package plus the cache schema
version.  Editing any source file therefore invalidates all prior entries -
the blunt but safe interpretation of "code-relevant config".

Every engine-derived key is one function, :func:`_key`, over ``(kind,
spec.signature(), config, run axes)``; the build axes are listed once, in
:class:`EngineConfig`.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
from pathlib import Path
from typing import Any, Callable, Mapping, Optional

from ..core.config import EngineConfig
from ..nn.backends import get_backend

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "callable_fingerprint",
    "code_fingerprint",
    "stable_hash",
    "engine_key",
    "engine_build_key",
    "plan_key",
    "similarity_key",
]

# Bump when the cached payload layout changes (e.g. new EngineResult fields
# that old pickles would silently lack).  2: pickled engines carry their
# EngineConfig, and every key hashes the resolved config.  3: pickled engines
# carry their memoized static analysis (``DittoEngine._static_info``).
CACHE_SCHEMA_VERSION = 3

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
    raise TypeError(f"cannot hash {type(obj).__name__!r} into a cache key")


def stable_hash(obj: Any) -> str:
    """SHA-256 hex digest of a canonical JSON rendering of ``obj``."""
    payload = json.dumps(_normalize(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _key(kind: str, spec, axes: Mapping[str, Any], **run_axes: Any) -> str:
    """The one key derivation: result kind, spec, the engine config the
    axis overrides resolve to, and the kind's run axes."""
    return stable_hash(
        {
            "kind": kind,
            "code": code_fingerprint(),
            "spec": spec.signature(),
            "config": EngineConfig.resolve(spec, **axes).axes(),
            **run_axes,
        }
    )


def engine_key(spec, seed: int = 0, batch_size: int = 1, **axes: Any) -> str:
    """Cache key for one instrumented :class:`EngineResult`.

    ``axes`` are :class:`EngineConfig` overrides, resolved against the spec
    exactly as ``DittoEngine.from_benchmark`` resolves them, so equivalent
    invocations share one entry while differently-built engines never
    collide.
    """
    return _key("engine_result", spec, axes, seed=seed, batch_size=batch_size)


def engine_build_key(spec, **axes: Any) -> str:
    """Cache key for one built :class:`DittoEngine` *object*.

    No run axes: the engine build is what crash recovery reloads, and the
    same build serves any run.
    """
    return _key("engine_build", spec, axes)


def plan_key(
    spec,
    derivation_seed: int = 0,
    derivation_batch_size: int = 1,
    hardware: str = "Ditto",
    plan_format: int = 1,
    backend: Optional[str] = None,
    **axes: Any,
) -> str:
    """Cache key for one :class:`~repro.core.plan.ExecutionPlan`.

    The engine config (a plan is a property of the built engine, not of
    any one serving run), plus the *derivation* run parameters
    (``derivation_seed`` / ``derivation_batch_size`` - bitwidth stats
    depend on the sampled noise), the Defo hardware model, and the plan
    payload format.

    ``backend`` names the compute path the plan was derived on; there is
    one, so it only accepts ``"reference"`` and leaves the key unchanged.
    """
    if backend is not None:
        get_backend(backend)  # raises ValueError for any other name
    return _key(
        "execution_plan",
        spec,
        axes,
        derivation_seed=derivation_seed,
        derivation_batch_size=derivation_batch_size,
        hardware=hardware,
        plan_format=plan_format,
    )


def similarity_key(spec, num_steps: int, seed: int = 1) -> str:
    """Cache key for one FP32 :class:`SimilarityReport`."""
    return stable_hash(
        {
            "kind": "similarity_report",
            "code": code_fingerprint(),
            "spec": spec.signature(),
            "num_steps": num_steps,
            "seed": seed,
        }
    )
