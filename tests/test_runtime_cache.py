"""Unit tests for the runtime result cache and its stable hashing."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.runtime import (
    ResultCache,
    callable_fingerprint,
    code_fingerprint,
    engine_build_key,
    engine_key,
    similarity_key,
    stable_hash,
)
from repro.workloads import get_benchmark

from helpers import make_tiny_spec


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


# -- cache behavior --------------------------------------------------------

def test_miss_then_hit(cache):
    key = stable_hash({"k": 1})
    assert cache.get(key) is None
    assert cache.stats.misses == 1
    cache.put(key, {"payload": [1, 2, 3]})
    assert cache.stats.stores == 1
    assert cache.get(key) == {"payload": [1, 2, 3]}
    assert cache.stats.hits == 1


def test_contains_and_invalidate(cache):
    key = stable_hash("entry")
    assert not cache.contains(key)
    cache.put(key, 42)
    assert cache.contains(key)
    assert cache.invalidate(key)
    assert not cache.contains(key)
    assert not cache.invalidate(key)


def test_corrupted_entry_recovers_as_miss(cache):
    key = stable_hash("soon corrupt")
    cache.put(key, "good value")
    path = cache.path_for(key)
    path.write_bytes(b"\x00not a pickle")
    assert cache.get(key) is None
    assert cache.stats.corrupt == 1
    assert not path.exists()  # dropped so the recompute overwrites cleanly
    cache.put(key, "recomputed")
    assert cache.get(key) == "recomputed"


def test_disabled_cache_never_touches_disk(tmp_path):
    cache = ResultCache(tmp_path / "cache", enabled=False)
    key = stable_hash("x")
    cache.put(key, 1)
    assert cache.get(key) is None
    assert not (tmp_path / "cache").exists()


def test_clear_removes_all_entries(cache):
    for i in range(5):
        cache.put(stable_hash(i), i)
    assert cache.entry_count() == 5
    assert cache.size_bytes() > 0
    assert cache.clear() == 5
    assert cache.get(stable_hash(0)) is None
    assert cache.entry_count() == 0


def test_clear_sweeps_orphaned_tmp_files(cache):
    key = stable_hash("x")
    cache.put(key, 1)
    # Simulate a writer killed mid-dump_pickle.
    orphan = cache.path_for(key).parent / "interrupted.tmp"
    orphan.write_bytes(b"partial")
    cache.clear()
    assert not orphan.exists()


# -- key construction ------------------------------------------------------

def test_engine_key_sensitivity():
    spec = get_benchmark("DDPM")
    base = engine_key(spec, num_steps=8, seed=0)
    assert base == engine_key(spec, num_steps=8, seed=0)
    assert base != engine_key(spec, num_steps=9, seed=0)
    assert base != engine_key(spec, num_steps=8, seed=1)
    assert base != engine_key(spec, num_steps=8, seed=0, step_clusters=2)
    assert base != engine_key(spec, num_steps=8, seed=0, calibration_seed=12)
    assert base != engine_key(get_benchmark("BED"), num_steps=8, seed=0)
    assert base != similarity_key(spec, num_steps=8)


def test_engine_build_key_sensitivity():
    """The engine-*object* key crash recovery warms from: no run params
    (seed/batch size), but the sampler override axis engine_key lacks."""
    spec = get_benchmark("DDPM")
    base = engine_build_key(spec, num_steps=8)
    assert base == engine_build_key(spec, num_steps=8)
    assert base != engine_build_key(spec, num_steps=9)
    assert base != engine_build_key(spec, num_steps=8, sampler="ddpm")
    assert base != engine_build_key(spec, num_steps=8, sampler_eta=0.5)
    assert base != engine_build_key(spec, num_steps=8, calibrate=False)
    assert base != engine_key(spec, num_steps=8)  # distinct key namespace


def test_custom_spec_signature_is_stable():
    a = make_tiny_spec("tinyA", num_steps=3)
    b = make_tiny_spec("tinyA", num_steps=3)
    assert a.signature() == b.signature()
    assert engine_key(a) == engine_key(b)
    assert engine_key(a) != engine_key(make_tiny_spec("tinyA", num_steps=4))


def test_callable_fingerprint_tracks_source_not_just_name():
    # Same module, same qualname ("<lambda>"), different bodies: only the
    # source hash tells them apart - the property that keeps cached results
    # honest when an out-of-package builder is edited.
    first = lambda: 1  # noqa: E731
    second = lambda: 2  # noqa: E731
    assert callable_fingerprint(first) != callable_fingerprint(second)
    assert "#" in callable_fingerprint(first)
    # Builtins have no retrievable source: name-only fallback, no crash.
    assert callable_fingerprint(len) == "builtins.len"


def test_callable_fingerprint_distinguishes_partials():
    import functools

    eight = functools.partial(dict, base_channels=8)
    sixteen = functools.partial(dict, base_channels=16)
    assert callable_fingerprint(eight) != callable_fingerprint(sixteen)
    assert callable_fingerprint(eight) == callable_fingerprint(
        functools.partial(dict, base_channels=8)
    )


def test_stable_hash_rejects_opaque_objects():
    with pytest.raises(TypeError):
        stable_hash({"fn": object()})


def test_key_stable_across_processes():
    """The exact property cross-session cache reuse depends on."""
    code = (
        "from repro.runtime import engine_key, code_fingerprint\n"
        "from repro.workloads import get_benchmark\n"
        "print(engine_key(get_benchmark('DDPM'), num_steps=8, seed=3))\n"
        "print(code_fingerprint())\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{src}{os.pathsep}{env.get('PYTHONPATH', '')}"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    child_key, child_fingerprint = proc.stdout.split()
    assert child_key == engine_key(get_benchmark("DDPM"), num_steps=8, seed=3)
    assert child_fingerprint == code_fingerprint()
