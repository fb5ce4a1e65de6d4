"""Unit tests for the batched serving runtime (``repro serve``)."""

import json

import numpy as np
import pytest

from repro.runtime.serving import (
    ARRIVAL_PATTERNS,
    SCHEDULERS,
    Request,
    estimate_row_footprint,
    generate_requests,
    pool_budget_row_cap,
    simulate_serving,
    _drain,
)

from helpers import make_tiny_engine, make_tiny_spec


# -- request generation -----------------------------------------------------

def test_arrival_patterns_shapes():
    for pattern in ARRIVAL_PATTERNS:
        reqs = generate_requests(8, rate_rps=4.0, pattern=pattern, seed=1)
        assert len(reqs) == 8
        assert [r.req_id for r in reqs] == list(range(8))
        arrivals = [r.arrival_s for r in reqs]
        assert arrivals[0] == 0.0
        assert all(b >= a for a, b in zip(arrivals, arrivals[1:]))


def test_uniform_arrivals_spacing():
    reqs = generate_requests(5, rate_rps=2.0, pattern="uniform")
    assert [r.arrival_s for r in reqs] == [0.0, 0.5, 1.0, 1.5, 2.0]


def test_burst_arrivals_all_at_zero():
    reqs = generate_requests(6, pattern="burst")
    assert all(r.arrival_s == 0.0 for r in reqs)


def test_poisson_arrivals_reproducible():
    a = generate_requests(10, 4.0, "poisson", seed=3)
    b = generate_requests(10, 4.0, "poisson", seed=3)
    assert [r.arrival_s for r in a] == [r.arrival_s for r in b]


def test_request_noise_independent_of_batching():
    req = Request(req_id=2, arrival_s=0.1, seed=(0, 2))
    n1 = req.draw_noise((2, 4, 4))
    n2 = req.draw_noise((2, 4, 4))
    assert n1.shape == (1, 2, 4, 4)
    np.testing.assert_array_equal(n1, n2)


def test_generate_requests_validation():
    with pytest.raises(ValueError):
        generate_requests(0)
    with pytest.raises(ValueError):
        generate_requests(4, pattern="bimodal")
    with pytest.raises(ValueError):
        generate_requests(4, rate_rps=0.0, pattern="poisson")


# -- lockstep micro-batching (the fixed admission rule) ----------------------

@pytest.fixture(scope="module")
def tiny_engine():
    return make_tiny_engine(num_steps=2)


def _reqs(arrivals):
    return [
        Request(req_id=i, arrival_s=float(t), seed=(0, i))
        for i, t in enumerate(arrivals)
    ]


def _drain_fixed(engine, arrivals, window_s, capacity):
    """Drain a hand-made trace under the lockstep admission rule."""
    reqs = _reqs(arrivals)
    noises = [r.draw_noise(engine.pipeline.sample_shape) for r in reqs]
    served, step_times, occupancies, samples, _, _ = _drain(
        engine, reqs, noises, capacity, scheduler="fixed", window_s=window_s
    )
    return served, step_times, occupancies, samples, noises


def test_burst_fills_batches_to_cap(tiny_engine):
    served, step_times, _, _, _ = _drain_fixed(tiny_engine, [0.0] * 6, 0.0, 4)
    assert [s.batch_fill for s in served] == [4, 4, 4, 4, 2, 2]
    # Two lockstep batches of two denoiser steps each.
    assert len({s.launch_s for s in served}) == 2
    assert len(step_times) == 2 * 2


def test_window_admits_near_arrivals(tiny_engine):
    # Second request lands inside the 0.2 s window, third far outside.
    served, _, _, _, _ = _drain_fixed(tiny_engine, [0.0, 0.1, 5.0], 0.2, 8)
    assert [s.batch_fill for s in served] == [2, 2, 1]
    # The unfilled batch waited out its window; the next opened at arrival.
    assert [s.launch_s for s in served] == pytest.approx([0.2, 0.2, 5.2])


def test_window_zero_serves_immediately(tiny_engine):
    served, _, _, _, _ = _drain_fixed(tiny_engine, [0.0, 0.3, 0.6], 0.0, 8)
    # Service is a few ms, so nothing queues up behind the server.
    assert [s.batch_fill for s in served] == [1, 1, 1]
    assert [s.launch_s for s in served] == [0.0, 0.3, 0.6]
    assert all(s.latency_s >= 0.0 for s in served)


def test_batch_order_preserves_request_order(tiny_engine):
    served, _, _, samples, noises = _drain_fixed(tiny_engine, [0.0] * 4, 0.0, 4)
    assert [s.req_id for s in served] == [0, 1, 2, 3]
    # Each row carries its own request's noise: every served sample is its
    # request's batch-1 run.
    for j, noise in enumerate(noises):
        np.testing.assert_array_equal(
            samples[j], tiny_engine.run(x_init=noise, record_trace=False).samples
        )


def test_mean_batch_fill_counts_batches_not_requests(tiny_engine):
    _, _, occupancies, _, _ = _drain_fixed(tiny_engine, [0.0] * 6, 0.0, 4)
    # One batch of 4 + one of 2, each for the same number of steps: the
    # per-step mean is the per-batch mean 3.0 (a request-weighted mean
    # would claim 3.33).
    assert np.mean(occupancies) == pytest.approx(3.0)


# -- end-to-end simulation --------------------------------------------------

@pytest.fixture(scope="module")
def tiny_report():
    return simulate_serving(
        make_tiny_spec("tinyServe", num_steps=3),
        batch_sizes=(1, 2),
        num_requests=4,
        rate_rps=50.0,
        pattern="uniform",
        window_s=0.05,
        seed=0,
        calibrate=False,
        verify_invariance=True,
    )


def test_simulate_serving_reports_all_batch_sizes(tiny_report):
    assert sorted(tiny_report.per_batch) == [1, 2]
    for size, report in tiny_report.per_batch.items():
        assert report.num_requests == 4
        assert report.throughput_rps > 0.0
        assert report.latency_p50_s <= report.latency_p99_s
        assert 1.0 <= report.mean_batch_fill <= size
        assert 0.0 <= report.temporal_relative_bops <= 1.0
        assert report.mac_savings_pct == pytest.approx(
            100.0 * (1.0 - report.temporal_relative_bops)
        )


def test_simulate_serving_verifies_invariance(tiny_report):
    # verify_invariance re-ran every served request batch-1 bit-exactly.
    assert tiny_report.invariance_checked
    assert tiny_report.verified_requests == [0, 1, 2, 3]


def test_serving_verify_smoke():
    """--verify holds on a small batched serve; the report names no backend."""
    report = simulate_serving(
        make_tiny_spec("tinyServeBk", num_steps=2),
        batch_sizes=(2,),
        num_requests=3,
        rate_rps=50.0,
        pattern="burst",
        window_s=0.05,
        seed=0,
        calibrate=False,
        verify_invariance=True,
    )
    assert report.invariance_checked
    assert not any("backend" in key for key in report.to_json())


def test_serving_report_renders_and_serializes(tiny_report):
    text = tiny_report.summary()
    assert "tinyServe" in text
    assert "req/s" in text
    payload = json.loads(json.dumps(tiny_report.to_json()))
    assert payload["num_requests"] == 4
    assert set(payload["per_batch"]) == {"1", "2"}
    assert payload["per_batch"]["2"]["batch_size"] == 2


def test_simulate_serving_validates_batch_sizes():
    with pytest.raises(ValueError):
        simulate_serving(make_tiny_spec(), batch_sizes=(0,), num_requests=2)


def test_verify_refuses_when_no_multi_request_batch_possible():
    # --verify must never silently verify nothing: with a max batch of 1
    # no multi-request batch can exist, so it fails loudly.
    with pytest.raises(ValueError, match="multi-request batch"):
        simulate_serving(
            make_tiny_spec("tinyV", num_steps=2),
            batch_sizes=(1,),
            num_requests=4,
            calibrate=False,
            verify_invariance=True,
        )


# -- continuous scheduler ----------------------------------------------------

@pytest.fixture(scope="module")
def continuous_report():
    return simulate_serving(
        make_tiny_spec("tinyCont", num_steps=3),
        batch_sizes=(1, 2),
        num_requests=4,
        rate_rps=50.0,
        pattern="uniform",
        seed=0,
        calibrate=False,
        scheduler="continuous",
        verify_invariance=True,
    )


def test_continuous_scheduler_serves_all_requests(continuous_report):
    assert continuous_report.scheduler == "continuous"
    assert sorted(continuous_report.per_batch) == [1, 2]
    for size, report in continuous_report.per_batch.items():
        assert report.num_requests == 4
        assert report.throughput_rps > 0.0
        # num_batches counts denoiser steps: 4 requests x 3 steps, shared
        # across up-to-`size` concurrent rows.
        assert report.num_batches >= 4 * 3 / size
        assert 0.0 < report.utilization <= 1.0
        assert report.mean_batch_fill == pytest.approx(
            report.utilization * size
        )


def test_continuous_scheduler_verified_bit_exact(continuous_report):
    # --verify replayed EVERY request against its batch-1 reference.
    assert continuous_report.invariance_checked


def test_continuous_report_serializes(continuous_report):
    payload = json.loads(json.dumps(continuous_report.to_json()))
    assert payload["scheduler"] == "continuous"
    assert set(payload["per_batch"]) == {"1", "2"}
    for entry in payload["per_batch"].values():
        assert 0.0 < entry["utilization"] <= 1.0
    text = continuous_report.summary()
    assert "continuous scheduler" in text
    assert "utilization" in text
    # Verify covers every request; the tail must say so.
    assert "every request verified" in text


def test_fixed_report_has_utilization(tiny_report):
    for size, report in tiny_report.per_batch.items():
        assert report.utilization == pytest.approx(
            report.mean_batch_fill / size
        )
    text = tiny_report.summary()
    assert "utilization" in text
    assert "fixed scheduler" in text
    # Verify checks every served request under either scheduler.
    assert "every request verified bit-exact" in text
    assert tiny_report.to_json()["scheduler"] == "fixed"


def test_sampler_override_conflicts_with_prebuilt_engine():
    from repro.core import DittoEngine

    spec = make_tiny_spec("tinyConflict", num_steps=2)
    engine = DittoEngine.from_benchmark(spec, calibrate=False)
    with pytest.raises(ValueError, match="prebuilt engine"):
        simulate_serving(
            spec, batch_sizes=(1,), num_requests=2,
            engine=engine, sampler="ddpm",
        )


def test_prebuilt_engine_supplies_steps_and_plan_key(tmp_path):
    """A prebuilt engine's own step count names the report and the plan key:
    a 2-step engine served under a 4-step spec must not cache its 2-call
    plan where the spec's own 4-step engine will look it up."""
    from repro.core import DittoEngine

    spec = make_tiny_spec("tinyPrebuilt", num_steps=4)
    short = DittoEngine.from_benchmark(spec, num_steps=2, calibrate=False)
    serve = dict(
        batch_sizes=(1,), num_requests=2, pattern="burst", calibrate=False,
        use_plan=True, plan_cache_dir=tmp_path,
    )
    assert simulate_serving(spec, engine=short, **serve).num_steps == 2
    full = simulate_serving(spec, **serve)
    assert (full.num_steps, full.plan_source) == (4, "derived")
    with pytest.raises(ValueError, match="prebuilt 2-step engine"):
        simulate_serving(spec, engine=short, num_steps=4, **serve)
    with pytest.raises(ValueError, match="guidance_scale=2 conflicts"):
        simulate_serving(spec, engine=short, guidance_scale=2.0, **serve)


@pytest.mark.parametrize(
    "build",
    [{"calibrate": False}, {"sampler": "ddpm"}],
    ids=["uncalibrated", "ddpm"],
)
def test_prebuilt_engine_keys_its_plan_under_its_own_config(tmp_path, build):
    """A prebuilt engine's config names its plan and its report even when
    the serve repeats none of its build axes: a later default serve of the
    same spec must derive its own plan, not replay the prebuilt one's."""
    from repro.core import DittoEngine

    spec = make_tiny_spec("tinyOwnConfig", num_steps=2)
    serve = dict(
        batch_sizes=(1,), num_requests=2, pattern="burst",
        use_plan=True, plan_cache_dir=tmp_path,
    )
    prebuilt = DittoEngine.from_benchmark(spec, **build)
    report = simulate_serving(spec, engine=prebuilt, **serve)
    default = simulate_serving(spec, **serve)
    assert (report.plan_source, default.plan_source) == ("derived", "derived")
    assert default.plan_digest != report.plan_digest
    assert report.sampler == build.get("sampler", "ddim")
    assert default.sampler == "ddim"


def test_prebuilt_ddpm_engine_reports_its_sampler():
    from repro.core import DittoEngine

    spec = make_tiny_spec("tinyDdpmReport", num_steps=2)
    engine = DittoEngine.from_benchmark(spec, calibrate=False, sampler="ddpm")
    report = simulate_serving(spec, batch_sizes=(1,), num_requests=2, engine=engine)
    assert report.sampler == "ddpm"
    assert report.to_json()["sampler"] == "ddpm"


@pytest.mark.parametrize(
    "axis", [{"calibrate": True}, {"step_clusters": 2}, {"sampler_eta": 0.5}]
)
def test_prebuilt_engine_rejects_conflicting_build_axes(axis):
    from repro.core import DittoEngine

    spec = make_tiny_spec("tinyAxisConflict", num_steps=2)
    engine = DittoEngine.from_benchmark(spec, calibrate=False)
    name = next(iter(axis))
    with pytest.raises(ValueError, match=f"{name}=.* conflicts with a prebuilt"):
        simulate_serving(
            spec, batch_sizes=(1,), num_requests=2, engine=engine, **axis
        )


def test_serving_rejects_unknown_build_axis():
    with pytest.raises(TypeError, match="unknown engine config axes: steps"):
        simulate_serving(
            make_tiny_spec("tinyUnknownAxis", num_steps=2),
            batch_sizes=(1,), num_requests=2, steps=3,
        )


def test_runtime_package_exports_serving_surface():
    from repro.runtime import (  # noqa: F401
        SCHEDULERS,
        estimate_row_footprint,
        pool_budget_row_cap,
    )


def test_unknown_scheduler_rejected():
    with pytest.raises(ValueError, match="unknown scheduler"):
        simulate_serving(
            make_tiny_spec("tinyBad", num_steps=2),
            batch_sizes=(1,),
            num_requests=2,
            calibrate=False,
            scheduler="speculative",
        )
    assert SCHEDULERS == ("fixed", "continuous")


def test_continuous_stochastic_sampler_verified():
    """DDPM ancestral sampling through the continuous scheduler: per-request
    SeedSequence.spawn streams keep every request bit-exact (verify raises
    otherwise)."""
    report = simulate_serving(
        make_tiny_spec("tinyContDdpm", num_steps=3),
        batch_sizes=(2,),
        num_requests=3,
        rate_rps=50.0,
        pattern="burst",
        seed=1,
        calibrate=False,
        scheduler="continuous",
        sampler="ddpm",
        verify_invariance=True,
    )
    assert report.invariance_checked
    assert report.sampler == "ddpm"


# -- pool budget --------------------------------------------------------------

def test_row_footprint_measured_positive():
    from repro.core import DittoEngine

    engine = DittoEngine.from_benchmark(
        make_tiny_spec("tinyFoot", num_steps=2), calibrate=False
    )
    row_bytes = estimate_row_footprint(engine)
    assert row_bytes > 0
    # A generous budget admits many rows; the measured floor refuses.
    assert pool_budget_row_cap(engine, 64.0) >= 1
    tiny_mb = row_bytes / 2**20 / 4.0
    with pytest.raises(ValueError, match="below one batch row"):
        pool_budget_row_cap(engine, tiny_mb)
    with pytest.raises(ValueError, match="positive"):
        pool_budget_row_cap(engine, 0.0)


def test_ddpm_row_footprint_guard():
    """Regression guard: served rows execute dense and hold no temporal
    state, convs unfold into the shared scratch pool, and stride-1 convs
    unfold only the k horizontal taps (the row-shift layout, ~3x smaller
    than im2col), so one DDPM row measures ~1.5 MiB of scratch.  A full
    stride-1 im2col trips this bound."""
    from repro.core import DittoEngine
    from repro.workloads import get_benchmark

    engine = DittoEngine.from_benchmark(
        get_benchmark("DDPM"), num_steps=2, calibrate=False
    )
    assert estimate_row_footprint(engine) <= 2 * 2**20


def test_dit_row_footprint_guard():
    """Regression guard for the attention/linear model: one dense DiT row
    measures ~0.8 MiB of scratch (GEMM, softmax and GELU temporaries)."""
    from repro.core import DittoEngine
    from repro.workloads import get_benchmark

    engine = DittoEngine.from_benchmark(
        get_benchmark("DiT"), num_steps=2, calibrate=False
    )
    assert estimate_row_footprint(engine) <= 1.5 * 2**20


def test_pool_budget_refusal_names_footprint_and_floor():
    """The refusal must be actionable: it reports the measured per-row
    footprint (MB and bytes) AND the smallest --pool-budget-mb that would
    admit one row - and that suggestion must actually work."""
    import math

    from repro.core import DittoEngine

    engine = DittoEngine.from_benchmark(
        make_tiny_spec("tinyFloor", num_steps=2), calibrate=False
    )
    row_bytes = estimate_row_footprint(engine)
    min_mb = math.ceil(row_bytes / 2**20 * 100.0) / 100.0
    with pytest.raises(ValueError) as err:
        pool_budget_row_cap(engine, row_bytes / 2**20 / 4.0)
    message = str(err.value)
    assert f"{row_bytes / 2**20:.2f} MB = {row_bytes} bytes" in message
    assert f"pass --pool-budget-mb {min_mb:.2f} or more" in message
    assert pool_budget_row_cap(engine, min_mb) >= 1


def test_pool_budget_caps_batch_sizes():
    from repro.core import DittoEngine

    spec = make_tiny_spec("tinyPool", num_steps=2)
    # Size a budget that fits ~2 rows of the measured footprint (a twin
    # engine from the same spec has the same buffer shapes).
    twin = DittoEngine.from_benchmark(spec, calibrate=False)
    budget_mb = 2.5 * estimate_row_footprint(twin) / 2**20
    report = simulate_serving(
        spec,
        batch_sizes=(1, 64),
        num_requests=3,
        rate_rps=50.0,
        pattern="burst",
        calibrate=False,
        scheduler="continuous",
        pool_budget_mb=budget_mb,
    )
    assert report.pool_row_cap == 2
    assert max(report.per_batch) <= report.pool_row_cap
    assert "pool budget" in report.summary()


# -- per-request sampler streams ----------------------------------------------

def test_sampler_rng_matches_seedsequence_spawn():
    req = Request(req_id=5, arrival_s=0.0, seed=(42, 5))
    direct = req.sampler_rng().standard_normal(8)
    spawned = np.random.default_rng(
        np.random.SeedSequence(42).spawn(6)[5]
    ).standard_normal(8)
    np.testing.assert_array_equal(direct, spawned)
    # Fresh generator per call: the batched replay and the reference replay
    # both start at the stream head.
    np.testing.assert_array_equal(direct, req.sampler_rng().standard_normal(8))


def test_cli_serve_continuous_smoke(capsys):
    from repro.cli import main

    code = main(
        [
            "serve", "DDPM", "--steps", "3", "--requests", "3",
            "--batch-sizes", "2", "--scheduler", "continuous",
            "--rate", "20", "--pattern", "uniform", "--verify",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "continuous scheduler" in out
    assert "utilization" in out
    assert "verified bit-exact" in out


def test_cli_serve_smoke(capsys):
    from repro.cli import main

    code = main(
        [
            "serve", "DDPM", "--steps", "3", "--requests", "3",
            "--batch-sizes", "1", "2", "--rate", "20", "--pattern", "uniform",
            "--window", "0.02",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "DDPM: 3 requests" in out
    assert "MAC sav%" in out
