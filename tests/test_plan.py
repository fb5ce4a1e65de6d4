"""Plan-then-execute serving (PR 9): the ``ExecutionPlan`` contract.

Three properties pinned here (see ``docs/plan-cache.md``):

* **Determinism** - deriving a plan from the same engine source twice
  yields a bit-identical digest, so the digest is a real identity and the
  drift check can demand exact equality.
* **Replay exactness** - ``simulate_serving(use_plan=True,
  verify_invariance=True)`` proves every served request of the
  plan-replay (``record_trace=False``) path bit-exact against its
  *instrumented* batch-1 reference, for both schedulers.
* **Cache hygiene** - ``plan_key`` embeds the package source fingerprint
  (a source edit strands every cached plan), and a cache-hit plan is
  drift-checked against a re-instrumented derivation: a perturbed cached
  artifact is reported, never silently trusted and never a crash.
"""

import dataclasses

import numpy as np
import pytest

from helpers import make_tiny_spec
from repro.core import DittoEngine, compare_plans, extract_plan
from repro.core.plan import PLAN_FORMAT
from repro.runtime import ResultCache, plan_key, simulate_serving
from repro.runtime import hashing


def _tiny_engine(num_steps=3):
    return DittoEngine.from_benchmark(
        make_tiny_spec(num_steps=num_steps), calibrate=False
    )


def _serve(tmp_path, **kwargs):
    params = dict(
        batch_sizes=(1, 2),
        num_requests=4,
        rate_rps=50.0,
        pattern="uniform",
        window_s=0.05,
        seed=0,
        calibrate=False,
        use_plan=True,
        plan_cache_dir=tmp_path,
    )
    params.update(kwargs)
    return simulate_serving(make_tiny_spec(), **params)


# -- derivation ------------------------------------------------------------

def test_extract_plan_deterministic_across_rebuilds():
    plans = [_tiny_engine().derive_plan(seed=0, batch_size=1) for _ in range(2)]
    assert plans[0].digest == plans[1].digest
    assert compare_plans(plans[0], plans[1]) == []
    plan = plans[0]
    assert plan.format == PLAN_FORMAT
    assert plan.benchmark == "tinyA"
    assert plan.num_steps == 3
    assert plan.num_records > 0
    assert 0.0 < plan.temporal_relative_bops < 1.0
    assert plan.mac_savings_pct == pytest.approx(
        100.0 * (1.0 - plan.temporal_relative_bops)
    )
    # 3 steps >= 2: Defo had a second step to compare against.
    assert plan.decisions
    assert plan.temporal_stats.total == (
        plan.temporal_stats.zero
        + plan.temporal_stats.low
        + plan.temporal_stats.high
    )


def test_extract_plan_requires_instrumented_run():
    engine = _tiny_engine()
    result = engine.run(batch_size=1, seed=0, record_trace=False)
    with pytest.raises(ValueError, match="record_trace"):
        extract_plan(result)


def test_plan_seed_changes_digest():
    engine = _tiny_engine()
    a = engine.derive_plan(seed=0, batch_size=1)
    b = engine.derive_plan(seed=1, batch_size=1)
    # Bit-width stats depend on the sampled noise; the derivation seed is
    # part of both the artifact and its cache key.
    assert a.digest != b.digest
    assert any("seed" in d or "stats" in d for d in compare_plans(a, b))


def test_compare_plans_reports_field_diffs():
    plan = _tiny_engine().derive_plan(seed=0, batch_size=1)
    bumped = dataclasses.replace(
        plan, temporal_relative_bops=plan.temporal_relative_bops + 0.1
    )
    diffs = compare_plans(plan, bumped)
    assert any("temporal_relative_bops" in d for d in diffs)


# -- plan-replay serving ---------------------------------------------------

@pytest.mark.parametrize("scheduler", ["fixed", "continuous"])
def test_plan_replay_verified_bit_exact(tmp_path, scheduler):
    report = _serve(
        tmp_path, scheduler=scheduler, verify_invariance=True
    )
    assert report.plan_source == "derived"
    assert report.plan_digest
    assert report.plan_drift == {
        "checked": False, "matches": True, "mismatches": []
    }
    for size_report in report.per_batch.values():
        assert 0.0 < size_report.temporal_relative_bops < 1.0
    assert "plan-replay mode" in report.summary()
    payload = report.to_json()
    assert payload["plan_source"] == "derived"
    assert payload["plan_digest"] == report.plan_digest


def test_second_serve_hits_cache_and_drift_checks(tmp_path):
    first = _serve(tmp_path)
    second = _serve(tmp_path)
    assert second.plan_source == "cache"
    assert second.plan_digest == first.plan_digest
    assert second.plan_drift == {
        "checked": True, "matches": True, "mismatches": []
    }
    assert "drift check: re-derived plan matches bit-exactly" in second.summary()


def test_plan_mode_reports_consistent_savings_across_batch_sizes(tmp_path):
    # One plan prices every batch size: the per-size MAC savings are the
    # plan's, not per-size instrumented re-derivations.
    report = _serve(tmp_path)
    savings = {
        round(r.mac_savings_pct, 6) for r in report.per_batch.values()
    }
    assert len(savings) == 1


# -- invalidation ----------------------------------------------------------

def test_plan_key_changes_with_code_fingerprint(monkeypatch):
    spec = make_tiny_spec()
    before = plan_key(spec, num_steps=3, calibrate=False)
    monkeypatch.setattr(hashing, "_CODE_FINGERPRINT", "f" * 64)
    after = plan_key(spec, num_steps=3, calibrate=False)
    assert before != after


def test_stale_plan_rederived_after_source_change(tmp_path, monkeypatch):
    first = _serve(tmp_path)
    assert first.plan_source == "derived"
    # Simulate a source edit: the memoized fingerprint changes, the old
    # entry becomes unreachable, and the next serve re-derives.
    monkeypatch.setattr(hashing, "_CODE_FINGERPRINT", "e" * 64)
    second = _serve(tmp_path)
    assert second.plan_source == "derived"
    assert second.plan_digest == first.plan_digest  # same engine, same plan


def test_plan_key_axes():
    spec = make_tiny_spec()
    base = plan_key(spec, num_steps=3, calibrate=False)
    assert plan_key(spec, num_steps=3, calibrate=False) == base
    assert plan_key(spec, num_steps=4, calibrate=False) != base
    assert plan_key(spec, num_steps=3, calibrate=False, derivation_seed=1) != base
    assert plan_key(spec, num_steps=3, calibrate=False, hardware="GPU") != base
    assert (
        plan_key(spec, num_steps=3, calibrate=False, plan_format=PLAN_FORMAT + 1)
        != base
    )


def test_plan_key_resolves_spec_defaults():
    """An axis left unset and the same axis set to the spec's default name
    one engine, so they share one key."""
    spec = make_tiny_spec()
    assert plan_key(spec) == plan_key(
        spec, num_steps=spec.num_steps, sampler=spec.sampler
    )
    assert plan_key(spec) == plan_key(spec, num_steps=None, calibrate=None)
    assert plan_key(spec) != plan_key(spec, sampler="ddpm")


def test_benchmark_plan_key_call_shape_is_what_serving_looks_up(tmp_path):
    """The benchmark harness stores a plan under
    ``plan_key(spec, num_steps=N, backend=engine.backend, derivation_seed=s,
    derivation_batch_size=1)`` and serves ``from_benchmark(spec,
    num_steps=N)`` with ``num_steps=N`` and the same seed: the serve must
    replay that plan, drift-free."""
    spec = make_tiny_spec()
    steps, seed = 2, 5
    engine = DittoEngine.from_benchmark(spec, num_steps=steps)
    plan = engine.derive_plan(seed=seed, batch_size=1)
    key = plan_key(
        spec,
        num_steps=steps,
        backend=engine.backend,
        derivation_seed=seed,
        derivation_batch_size=1,
    )
    ResultCache(tmp_path).put(key, plan)
    report = simulate_serving(
        spec,
        batch_sizes=[2],
        num_requests=3,
        rate_rps=20.0,
        pattern="poisson",
        num_steps=steps,
        seed=seed,
        engine=engine,
        scheduler="continuous",
        use_plan=True,
        plan_cache_dir=tmp_path,
    )
    assert report.plan_source == "cache"
    assert report.plan_digest == plan.digest
    assert report.plan_drift["matches"]


# -- drift check -----------------------------------------------------------

def test_drift_check_fires_on_perturbed_plan(tmp_path):
    first = _serve(tmp_path)
    assert first.plan_source == "derived"
    key = plan_key(
        make_tiny_spec(), num_steps=3, calibrate=False,
        derivation_seed=0, derivation_batch_size=1,
    )
    cache = ResultCache(tmp_path)
    cached = cache.get(key)
    assert cached is not None and cached.digest == first.plan_digest
    cache.put(key, dataclasses.replace(cached, total_macs=cached.total_macs + 1))

    report = _serve(tmp_path)
    assert report.plan_source == "cache"
    assert report.plan_drift["checked"] is True
    assert report.plan_drift["matches"] is False
    assert any("total_macs" in m for m in report.plan_drift["mismatches"])
    assert "WARNING plan drift" in report.summary()
    assert report.to_json()["plan_drift"]["matches"] is False


# -- session validation ----------------------------------------------------

def test_session_rejects_foreign_plan():
    engine = _tiny_engine()
    plan = engine.derive_plan(seed=0, batch_size=1)
    wrong = dataclasses.replace(plan, benchmark="other")
    with pytest.raises(ValueError, match="benchmark"):
        engine.open_session(capacity=2, plan=wrong)
    with engine.open_session(capacity=2, plan=plan) as session:
        assert session.plan is plan


def test_plan_payload_round_trips_canonically():
    plan = _tiny_engine().derive_plan(seed=0, batch_size=1)
    payload = plan.to_payload()
    assert payload["decisions"] == dict(sorted(payload["decisions"].items()))
    assert payload["changed_layers"] == sorted(payload["changed_layers"])
    # np ints must not leak into the canonical payload (json must accept it).
    import json

    json.dumps(payload)
    assert isinstance(payload["total_macs"], int)
    assert isinstance(payload["temporal_stats"]["total"], int)
