"""EngineRunner - parallel, cached production of instrumented engine runs.

The paper's methodology funnels every analysis (BOPs, Defo policies, all
hardware comparisons) through *one* instrumented generation run per Table I
benchmark.  Building those seven engines is by far the most expensive part
of a sweep, and it is embarrassingly parallel and fully deterministic given
the seeds.  :class:`EngineRunner` therefore:

* fans benchmark engine construction out across a
  :class:`concurrent.futures.ProcessPoolExecutor` (``jobs > 1``), and
* backs every :class:`~repro.core.engine.EngineResult` and
  :class:`~repro.core.similarity.SimilarityReport` with the
  content-addressed on-disk cache from :mod:`repro.runtime.cache`, so a
  second sweep (or a second pytest benchmark session) skips engine
  reconstruction entirely.

Workers consult and populate the same cache directory, so a parallel first
run warms the cache for every later serial consumer.  Benchmarks are
usually addressed by Table I name (resolved inside the worker process, so
nothing unpicklable crosses the pool boundary); custom
:class:`~repro.workloads.suite.BenchmarkSpec` objects are also accepted as
long as their ``build_*`` callables are importable module-level functions.
"""

from __future__ import annotations

import multiprocessing
import sys
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from ..core.config import EngineConfig
from ..core.engine import DittoEngine, EngineResult
from ..core.similarity import SimilarityReport, similarity_report
from .cache import CacheStats, ResultCache, default_cache_dir
from .hashing import engine_build_key, engine_key, similarity_key

__all__ = ["EngineRunner", "SIMILARITY_MAX_STEPS", "normalize_batch_sizes"]


def normalize_batch_sizes(
    batch_sizes: Iterable[int], preserve_order: bool = False
) -> List[int]:
    """Dedupe and validate a batch-size axis (shared by bench/serve/sweeps).

    ``preserve_order=True`` keeps first-occurrence order (``repro bench``
    treats the first size as the headline record); the default sorts
    ascending.  Rejects empty input and sizes < 1.
    """
    requested = [int(b) for b in batch_sizes]
    if preserve_order:
        sizes = list(dict.fromkeys(requested))
    else:
        sizes = sorted(set(requested))
    if not sizes:
        raise ValueError("need at least one batch size")
    if min(sizes) < 1:
        raise ValueError(f"batch sizes must be >= 1, got {requested}")
    return sizes

# Similarity analysis only needs a window of adjacent steps (Figs. 3-4), so
# runs are capped at this many steps unless the caller overrides them.
SIMILARITY_MAX_STEPS = 16

SpecOrName = Union[str, object]


def _resolve_spec(spec_or_name: SpecOrName):
    if isinstance(spec_or_name, str):
        from ..workloads import get_benchmark

        return get_benchmark(spec_or_name)
    return spec_or_name


def _compute_engine_result(spec, params: dict) -> EngineResult:
    engine = DittoEngine.from_benchmark(spec, **params["config"])
    return engine.run(batch_size=params["batch_size"], seed=params["seed"])


def _engine_result_key(spec, params: dict) -> str:
    return engine_key(
        spec, seed=params["seed"], batch_size=params["batch_size"], **params["config"]
    )


def _compute_similarity(spec, params: dict) -> SimilarityReport:
    from ..diffusion import DiffusionSchedule, GenerationPipeline, make_sampler

    model = spec.build_model()
    sampler = make_sampler(
        spec.sampler, DiffusionSchedule(1000), params["num_steps"]
    )
    pipeline = GenerationPipeline(
        model, sampler, spec.sample_shape, spec.build_conditioning()
    )
    rng = np.random.default_rng(params["seed"])
    return similarity_report(
        spec.name, model, lambda: pipeline.generate(1, rng)
    )


def _similarity_key(spec, params: dict) -> str:
    return similarity_key(spec, **params)


_COMPUTE = {
    "engine": (_compute_engine_result, _engine_result_key),
    "similarity": (_compute_similarity, _similarity_key),
}


def _normalized_params(kind: str, spec, params: dict) -> dict:
    """Resolve defaults that depend on the spec, so equivalent invocations
    share one cache key (``num_steps=None`` vs the resolved step count)."""
    if kind == "engine":
        config = EngineConfig.resolve(spec, **params["config"])
        return {**params, "config": config.axes()}
    if params.get("num_steps") is None:
        return {**params, "num_steps": min(spec.num_steps, SIMILARITY_MAX_STEPS)}
    return params


def _run_one(
    kind: str, spec_or_name: SpecOrName, params: dict, cache: ResultCache
) -> Tuple[str, object]:
    """Cache-through computation of one result; shared by pool and serial paths."""
    compute, make_key = _COMPUTE[kind]
    spec = _resolve_spec(spec_or_name)
    params = _normalized_params(kind, spec, params)
    key = make_key(spec, params)
    value = cache.get(key)
    if value is None:
        value = compute(spec, params)
        cache.put(key, value)
    return spec.name, value


def _pool_worker(
    kind: str,
    spec_or_name: SpecOrName,
    params: dict,
    cache_dir: str,
    cache_enabled: bool,
) -> Tuple[str, object, CacheStats]:
    """Top-level (picklable) worker: fresh cache handle, stats shipped back."""
    cache = ResultCache(cache_dir, enabled=cache_enabled)
    name, value = _run_one(kind, spec_or_name, params, cache)
    return name, value, cache.stats


class EngineRunner:
    """Runs benchmark engines across a process pool with a shared result cache.

    Every engine method takes the build axes as
    :class:`~repro.core.config.EngineConfig` keyword overrides
    (``num_steps=4``, ``calibrate=False``, ...), resolved once per spec;
    pool workers receive the benchmark name, the resolved config fields
    and the run's seed and batch size, all plain primitives.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: bool = True,
        cache_dir=None,
    ) -> None:
        self.jobs = max(1, int(jobs))
        self._cache = ResultCache(
            cache_dir if cache_dir is not None else default_cache_dir(),
            enabled=cache,
        )

    # -- introspection -----------------------------------------------------
    @property
    def cache(self) -> ResultCache:
        """The shared content-addressed result store."""
        return self._cache

    @property
    def stats(self) -> CacheStats:
        """Hit/miss counters of the underlying cache."""
        return self._cache.stats

    # -- single results ----------------------------------------------------
    def run_benchmark(
        self,
        spec_or_name: SpecOrName,
        seed: int = 0,
        batch_size: int = 1,
        **axes,
    ) -> EngineResult:
        """One cached instrumented run (serial; use :meth:`run_suite` to fan out).

        ``axes`` are :class:`~repro.core.config.EngineConfig` overrides.
        """
        params = {"config": axes, "seed": seed, "batch_size": batch_size}
        return _run_one("engine", spec_or_name, params, self._cache)[1]

    def build_engine(self, spec_or_name: SpecOrName, **axes) -> DittoEngine:
        """One cached engine *build* (quantization + calibration, no run).

        This is the crash-recovery path of the serving tier: rebuilding a
        killed session's engine must be fast, so the built
        :class:`DittoEngine` object itself is stored in the
        content-addressed cache (engines are plain numpy + pure-Python
        state plus their :class:`~repro.core.config.EngineConfig`, so they
        pickle; the key carries the source fingerprint and the resolved
        config).  Builds are deterministic given the calibration seed, so a
        cache miss rebuilds bit-identically - the cache only buys warmth,
        never correctness.
        """
        spec = _resolve_spec(spec_or_name)
        config = EngineConfig.resolve(spec, **axes)
        key = engine_build_key(spec, **config.axes())
        engine = self._cache.get(key)
        if engine is None:
            engine = DittoEngine.from_benchmark(spec, **config.axes())
            try:
                self._cache.put(key, engine)
            except Exception:
                # An unpicklable custom spec (e.g. a closure-built model)
                # cannot be cached, but the freshly built engine still
                # serves; recovery then cold-rebuilds instead of reloading.
                pass
        return engine

    def run_batch_sizes(
        self,
        spec_or_name: SpecOrName,
        batch_sizes: Iterable[int] = (1, 2, 4, 8),
        seed: int = 0,
        **axes,
    ) -> Dict[int, EngineResult]:
        """Cached instrumented runs of one benchmark across batch sizes.

        The batch-size axis fans out across the process pool exactly like the
        benchmark axis of :meth:`run_suite` (cache keys carry ``batch_size``,
        so each point is independently reusable).  Returns
        ``{batch_size: EngineResult}``.
        """
        sizes = normalize_batch_sizes(batch_sizes)
        items = [
            (spec_or_name, {"config": axes, "seed": seed, "batch_size": size})
            for size in sizes
        ]
        # _map_varied yields results in completion order and every item here
        # shares one benchmark name, so re-key each result by its actual
        # batch dimension (samples are (batch, *sample_shape)).
        results = [value for _, value in self._map_varied("engine", items)]
        by_size = {int(r.samples.shape[0]): r for r in results}
        if sorted(by_size) != sizes:
            raise AssertionError(
                f"batched sweep returned sizes {sorted(by_size)}, wanted {sizes}"
            )
        return {size: by_size[size] for size in sizes}

    def similarity(
        self,
        spec_or_name: SpecOrName,
        num_steps: Optional[int] = None,
        seed: int = 1,
    ) -> SimilarityReport:
        """One cached FP32 similarity report (Figs. 3-4).

        ``num_steps=None`` resolves to ``min(spec steps, SIMILARITY_MAX_STEPS)``.
        """
        params = {"num_steps": num_steps, "seed": seed}
        return _run_one("similarity", spec_or_name, params, self._cache)[1]

    # -- suite fan-out -----------------------------------------------------
    def run_suite(
        self,
        benchmarks: Optional[Iterable[SpecOrName]] = None,
        seed: int = 0,
        batch_size: int = 1,
        **axes,
    ) -> Dict[str, EngineResult]:
        """Instrumented runs for every benchmark, cache-first then pooled.

        ``axes`` override every benchmark's build axes; each spec resolves
        its own defaults.
        """
        params = {"config": axes, "seed": seed, "batch_size": batch_size}
        return self._map("engine", self._default_suite(benchmarks), params)

    def similarity_suite(
        self,
        benchmarks: Optional[Iterable[SpecOrName]] = None,
        num_steps: Optional[int] = None,
        seed: int = 1,
    ) -> Dict[str, SimilarityReport]:
        """Similarity reports for every benchmark, cache-first then pooled."""
        params = {"num_steps": num_steps, "seed": seed}
        return self._map("similarity", self._default_suite(benchmarks), params)

    # -- internals ---------------------------------------------------------
    @staticmethod
    def _default_suite(
        benchmarks: Optional[Iterable[SpecOrName]],
    ) -> List[SpecOrName]:
        if benchmarks is not None:
            return list(benchmarks)
        from ..workloads import benchmark_names

        return list(benchmark_names())

    def _map(
        self, kind: str, items: List[SpecOrName], params: dict
    ) -> Dict[str, object]:
        ordered = [(item, params) for item in items]
        results: Dict[str, object] = {}
        for name, value in self._map_varied(kind, ordered):
            results[name] = value
        return results

    def _map_varied(
        self, kind: str, items: List[Tuple[SpecOrName, dict]]
    ) -> List[Tuple[str, object]]:
        make_key = _COMPUTE[kind][1]
        out: List[Tuple[str, object]] = []
        pending: List[Tuple[SpecOrName, dict]] = []
        # Cache-first pass: warm entries load in-process, no pool needed.
        for item, params in items:
            spec = _resolve_spec(item)
            if self._cache.contains(
                make_key(spec, _normalized_params(kind, spec, params))
            ):
                out.append(_run_one(kind, item, params, self._cache))
            else:
                pending.append((item, params))
        if not pending:
            return out
        if self.jobs == 1 or len(pending) == 1:
            for item, params in pending:
                out.append(_run_one(kind, item, params, self._cache))
            return out
        # Fork keeps worker startup cheap and inherits sys.path / custom
        # specs.  Restricted to Linux: on macOS forking after numpy /
        # Accelerate initialization is crash-prone, and specs passed by
        # Table I name survive spawn anyway.
        if sys.platform == "linux":
            ctx = multiprocessing.get_context("fork")
        else:  # pragma: no cover - exercised only off-Linux
            ctx = multiprocessing.get_context()
        workers = min(self.jobs, len(pending))
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            futures = {
                pool.submit(
                    _pool_worker,
                    kind,
                    item,
                    params,
                    str(self._cache.cache_dir),
                    self._cache.enabled,
                ): item
                for item, params in pending
            }
            remaining = set(futures)
            while remaining:
                done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                for future in done:
                    name, value, stats = future.result()
                    self._cache.stats = self._cache.stats.merge(stats)
                    out.append((name, value))
        return out
