"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.diffusion import DiffusionSchedule
from repro.nn import sanitizer

from helpers import make_tiny_engine


@pytest.fixture(scope="session", autouse=True)
def _numeric_sanitizer():
    """Install the runtime numeric sanitizer when REPRO_SANITIZE=1.

    One CI matrix leg runs the whole suite this way: every kernel call is
    checked for float64 leaks inside float32 calibration regions and for
    non-C-contiguous cols entering the integer GEMMs.
    """
    if not sanitizer.enabled():
        yield
        return
    with sanitizer.sanitized():
        yield


@pytest.fixture(scope="session", autouse=True)
def _private_cache_dir(tmp_path_factory):
    """Point the default result cache at a per-session temporary directory.

    Every serve derives (and caches) an ExecutionPlan, and engine builds
    cache too; without this the suite would write into the user's
    ``~/.cache/ditto-repro``, and a plan left there by an earlier run could
    change a test's ``plan_source``.  Session scope also covers the
    ``benchmarks/`` suite that runs after ``tests/`` in a full run.  The
    previous value is restored at the end of the session.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("repro-cache")))
        yield


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def schedule():
    return DiffusionSchedule(num_train_steps=100)


@pytest.fixture(scope="session")
def tiny_engine_result():
    """One cached instrumented run shared by trace/defo/hw tests."""
    engine = make_tiny_engine(num_steps=5)
    return engine.run(seed=3)
