"""Shared session fixtures for the figure/table reproduction benchmarks.

Each of the paper's experiments consumes the same seven instrumented
generation runs (one per Table I benchmark), so the engine results are
produced once and cached.  Production goes through
:class:`repro.runtime.EngineRunner`: the first session builds the engines
(optionally across ``REPRO_BENCH_JOBS`` worker processes) and persists every
``EngineResult`` / ``SimilarityReport`` in the content-addressed on-disk
cache; later sessions are thin cache lookups that skip engine
reconstruction entirely.  Individual benchmark files lower the cached rich
traces under the relevant policies and run the hardware models - that
analysis step is what ``pytest-benchmark`` times.

Environment knobs:

``REPRO_BENCH_JOBS``
    Worker processes for cold-cache engine construction (default 1).
``REPRO_CACHE_DIR``
    Cache location (default ``~/.cache/ditto-repro``).  In a full tier-1
    run the ``tests/`` session fixture has already pointed it at a
    private temporary directory, so the suite leaves the user's cache
    untouched; run ``benchmarks/`` alone to reuse a warm cache.
``REPRO_BENCH_NO_CACHE``
    Set to any non-empty value to force rebuilding from scratch.

Every benchmark also appends its headline numbers to
``benchmarks/results/<experiment>.txt`` so EXPERIMENTS.md can be regenerated
from a plain run.
"""

import os
from pathlib import Path

import pytest

from repro.nn import sanitizer
from repro.runtime import EngineRunner
from repro.workloads import SUITE

RESULTS_DIR = Path(__file__).parent / "results"

BENCHMARKS = list(SUITE)


@pytest.fixture(scope="session", autouse=True)
def _numeric_sanitizer():
    """Install the runtime numeric sanitizer when REPRO_SANITIZE=1.

    Covers in-process engine builds; REPRO_BENCH_JOBS worker processes run
    unwrapped (they re-import repro fresh), which is fine - the CI sanitize
    leg runs single-process.
    """
    if not sanitizer.enabled():
        yield
        return
    with sanitizer.sanitized():
        yield


@pytest.fixture(scope="session")
def engine_runner():
    return EngineRunner(
        jobs=int(os.environ.get("REPRO_BENCH_JOBS") or "1"),
        cache=not os.environ.get("REPRO_BENCH_NO_CACHE"),
        cache_dir=os.environ.get("REPRO_CACHE_DIR"),
    )


@pytest.fixture(scope="session")
def engine_results(engine_runner):
    """One instrumented quantized run per Table I benchmark (cache-backed)."""
    return engine_runner.run_suite(BENCHMARKS, seed=0)


@pytest.fixture(scope="session")
def similarity_reports(engine_runner):
    """FP32 activation-similarity reports (Figs. 3-4) per benchmark.

    Similarity analysis only needs a window of adjacent steps; the runner
    caps runs at ``SIMILARITY_MAX_STEPS`` and caches each report.
    """
    return engine_runner.similarity_suite(BENCHMARKS, seed=1)


def write_result(experiment: str, lines) -> None:
    """Persist a benchmark's headline table for EXPERIMENTS.md."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{experiment}.txt"
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.fixture(scope="session")
def record_result():
    return write_result
