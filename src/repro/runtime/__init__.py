"""Parallel, cached execution runtime for the reproduction.

Public surface:

* :class:`EngineRunner` - process-pool fan-out of benchmark engine runs
  with a shared content-addressed result cache,
* :class:`ResultCache` / :class:`CacheStats` - the on-disk store,
* :func:`engine_key` / :func:`engine_build_key` / :func:`plan_key` /
  :func:`similarity_key` / :func:`stable_hash` / :func:`code_fingerprint` -
  stable cache-key construction,
* :class:`FaultPlan` / :class:`CancelToken` / :class:`ReplayableRNG` - the
  deterministic fault-injection harness and cancellation primitives behind
  fault-tolerant serving (:mod:`repro.runtime.faults`).
"""

from .cache import CacheStats, ResultCache, default_cache_dir
from .faults import (
    CancelToken,
    FaultPlan,
    InjectedFault,
    ReplayableRNG,
    SessionKilled,
)
from .hashing import (
    CACHE_SCHEMA_VERSION,
    callable_fingerprint,
    code_fingerprint,
    engine_build_key,
    engine_key,
    plan_key,
    similarity_key,
    stable_hash,
)
from .runner import SIMILARITY_MAX_STEPS, EngineRunner, normalize_batch_sizes
from .serving import (
    ARRIVAL_PATTERNS,
    REQUEST_OUTCOMES,
    SCHEDULERS,
    BatchSizeReport,
    Request,
    ServedRequest,
    ServingReport,
    SLOClass,
    SLOClassReport,
    assign_slo_classes,
    generate_requests,
    parse_slo_spec,
    simulate_serving,
)

__all__ = [
    "ARRIVAL_PATTERNS",
    "BatchSizeReport",
    "CACHE_SCHEMA_VERSION",
    "CacheStats",
    "CancelToken",
    "EngineRunner",
    "FaultPlan",
    "InjectedFault",
    "REQUEST_OUTCOMES",
    "ReplayableRNG",
    "Request",
    "ResultCache",
    "SCHEDULERS",
    "SIMILARITY_MAX_STEPS",
    "SLOClass",
    "SLOClassReport",
    "ServedRequest",
    "ServingReport",
    "SessionKilled",
    "assign_slo_classes",
    "callable_fingerprint",
    "code_fingerprint",
    "default_cache_dir",
    "engine_build_key",
    "engine_key",
    "generate_requests",
    "normalize_batch_sizes",
    "parse_slo_spec",
    "plan_key",
    "similarity_key",
    "simulate_serving",
    "stable_hash",
]
