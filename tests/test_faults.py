"""Fault-tolerant serving: deadlines, cancellation, retries, crash recovery.

Unit tests pin the :mod:`repro.runtime.faults` primitives (the fault-spec
grammar, firing budgets, the replayable rng streams, SLO class parsing and
assignment); the end-to-end tests replay small traces through
``simulate_serving`` under injected faults and hold the serving tier to its
two contracts:

* **bit-exactness survives failure** - retried steps, evicted rows, and a
  killed-and-recovered session leave every surviving request bit-exact with
  its seeded batch-1 reference (``verify_invariance`` raises otherwise);
* **accounting is total and deterministic** - every request ends in exactly
  one of completed/cancelled/expired/failed, and replaying the same fault
  plan twice produces identical outcome accounting.
"""

import numpy as np
import pytest

from repro.runtime import faults
from repro.runtime.cache import ResultCache
from repro.runtime.faults import (
    CancelToken,
    FaultPlan,
    InjectedFault,
    ReplayableRNG,
    SessionKilled,
)
from repro.runtime.serving import (
    MAX_RECOVERIES,
    SLOClass,
    assign_slo_classes,
    generate_requests,
    parse_slo_spec,
    simulate_serving,
    _verify,
)

from helpers import make_tiny_engine, make_tiny_spec


# -- fault-spec grammar ------------------------------------------------------

def test_fault_spec_parses_entries():
    plan = FaultPlan.from_spec(
        "error@req=1,step=2; kill@step=3,times=*;"
        "delay@req=5,step=1,ms=30000; cancel@req=2,at=0.5;"
        "corrupt@read=*,times=2"
    )
    kinds = [e.kind for e in plan.entries]
    assert kinds == ["error", "kill", "delay", "cancel", "corrupt"]
    error, kill, delay, cancel, corrupt = plan.entries
    assert (error.req, error.step, error.times) == (1, 2, 1)
    assert (kill.req, kill.step, kill.times) == (None, 3, None)
    assert (delay.req, delay.step, delay.ms) == (5, 1, 30000.0)
    assert (cancel.req, cancel.at, cancel.step) == (2, 0.5, None)
    assert (corrupt.read, corrupt.times) == (None, 2)


@pytest.mark.parametrize(
    "spec, match",
    [
        ("explode@step=1", "kind"),
        ("error", "kind"),
        ("error@req=1", "needs step"),
        ("delay@step=1", "ms=M > 0"),
        ("cancel@req=1", "exactly one"),
        ("cancel@req=1,at=0.5,step=2", "exactly one"),
        ("cancel@at=0.5", "needs req"),
        ("error@step=1,p=0.5", "unknown key"),
        ("error@step=1,boom=3", "unknown key"),
        ("error@step", "key=value"),
        ("error@step=1,times=soon", "int or"),
    ],
)
def test_fault_spec_rejects_bad_entries(spec, match):
    with pytest.raises(ValueError, match=match):
        FaultPlan.from_spec(spec)


def test_request_coordinate_fires_per_row_step():
    # req=0,step=1 with times=2: matches whenever request 0 sits at row-step
    # 1 - which a *retried* attempt does too (the row did not advance), so
    # the budget meters exactly how many attempts fail.
    plan = FaultPlan.from_spec("error@req=0,step=1,times=2")
    plan.on_step_attempt([0], [0])  # wrong row-step: no fire
    with pytest.raises(InjectedFault):
        plan.on_step_attempt([0], [1])
    with pytest.raises(InjectedFault):
        plan.on_step_attempt([0], [1])  # the retry fails too
    plan.on_step_attempt([0], [1])  # budget spent: the third attempt runs


def test_global_attempt_coordinate_counts_attempts():
    # Bare step=S addresses the S-th step *attempt* of the drain.
    plan = FaultPlan.from_spec("kill@step=1")
    plan.on_step_attempt([7], [3])
    with pytest.raises(SessionKilled):
        plan.on_step_attempt([7], [3])
    plan.on_step_attempt([7], [3])
    assert plan.step_attempts == 3


def test_session_killed_is_an_injected_fault():
    assert issubclass(SessionKilled, InjectedFault)
    assert issubclass(InjectedFault, RuntimeError)


def test_service_delay_matches_attempt_and_row():
    plan = FaultPlan.from_spec("delay@req=2,step=1,ms=500")
    plan.on_step_attempt([2, 3], [0, 0])
    assert plan.service_delay_s([2, 3], [0, 0]) == 0.0
    plan.on_step_attempt([2, 3], [1, 1])
    assert plan.service_delay_s([2, 3], [1, 1]) == pytest.approx(0.5)
    plan.on_step_attempt([2, 3], [1, 2])
    assert plan.service_delay_s([2, 3], [1, 2]) == 0.0  # budget spent


def test_cancellations_by_time_and_step():
    plan = FaultPlan.from_spec("cancel@req=0,at=1.5;cancel@req=1,step=2")
    assert plan.cancellations(0.0, {0: 0, 1: 0}) == []
    assert plan.cancellations(2.0, {0: 1, 1: 1}) == [0]
    assert plan.cancellations(2.0, {0: 1, 1: 1}) == []  # budget spent
    assert plan.cancellations(2.0, {1: 2}) == [1]
    # Entries for requests no longer in flight never fire.
    assert plan.cancellations(9.0, {}) == []


def test_corrupt_cache_read_indexing():
    plan = FaultPlan.from_spec("corrupt@read=1")
    assert [plan.corrupt_cache_read() for _ in range(3)] == [False, True, False]
    every = FaultPlan.from_spec("corrupt@read=*,times=2")
    assert [every.corrupt_cache_read() for _ in range(3)] == [True, True, False]


# -- replayable rng streams --------------------------------------------------

def test_replayable_rng_capture_restore_is_exact():
    rng = ReplayableRNG(np.random.default_rng(7))
    rng.standard_normal((1, 4))
    snap = rng.capture_state()
    a = rng.standard_normal((1, 4))
    assert rng.draws == 2
    rng.restore_state(snap)
    assert rng.draws == 1
    np.testing.assert_array_equal(rng.standard_normal((1, 4)), a)


def test_replayable_rng_fast_forward_matches_draws():
    shape = (1, 3, 2)
    lived = ReplayableRNG(np.random.default_rng(11))
    for _ in range(4):
        lived.standard_normal(shape)
    recovered = ReplayableRNG(np.random.default_rng(11))
    recovered.fast_forward(lived.draws, shape)
    assert recovered.draws == lived.draws
    np.testing.assert_array_equal(
        recovered.standard_normal(shape), lived.standard_normal(shape)
    )


def test_capture_restore_handles_plain_generators_and_none():
    rng = np.random.default_rng(5)
    snap = faults.capture_rng_state(rng)
    a = rng.standard_normal(4)
    faults.restore_rng_state(rng, snap)
    np.testing.assert_array_equal(rng.standard_normal(4), a)
    assert faults.capture_rng_state(None) is None
    faults.restore_rng_state(None, None)  # no-op


def test_cancel_token():
    token = CancelToken()
    assert not token.cancelled
    token.cancel("user hung up")
    assert token.cancelled
    assert token.reason == "user hung up"


# -- ambient plan ------------------------------------------------------------

def test_install_stack_and_env_fallback(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    assert faults.active() is None
    plan = FaultPlan.from_spec("error@step=0")
    with faults.install(plan) as installed:
        assert installed is plan
        assert faults.active() is plan
        inner = FaultPlan.from_spec("kill@step=0")
        with faults.install(inner):
            assert faults.active() is inner
        assert faults.active() is plan
    assert faults.active() is None
    with faults.install(None) as nothing:  # no-op context
        assert nothing is None
        assert faults.active() is None
    monkeypatch.setenv("REPRO_FAULTS", "corrupt@read=*")
    ambient = faults.active()
    assert ambient is not None
    assert ambient.entries[0].kind == "corrupt"
    # Memoized per spec string: budgets span the process for env plans.
    assert faults.active() is ambient
    with faults.install(plan):  # an installed plan shadows the env
        assert faults.active() is plan


# -- SLO classes -------------------------------------------------------------

def test_parse_slo_spec():
    classes = parse_slo_spec("interactive:0.5:2,batch::1,bulk:none")
    assert [c.name for c in classes] == ["interactive", "batch", "bulk"]
    assert [c.deadline_s for c in classes] == [0.5, None, None]
    assert [c.weight for c in classes] == [2.0, 1.0, 1.0]


@pytest.mark.parametrize(
    "spec, match",
    [
        ("", "no classes"),
        (":0.5", "expected"),
        ("a:0.5:1:9", "expected"),
        ("a:-1", "deadline"),
        ("a:1:0", "weight"),
        ("a:1,a:2", "repeats"),
    ],
)
def test_parse_slo_spec_rejects(spec, match):
    with pytest.raises(ValueError, match=match):
        parse_slo_spec(spec)


def test_assign_slo_classes_dhondt():
    classes = parse_slo_spec("batch::5,interactive:10:1")
    assigned = assign_slo_classes(6, classes)
    assert [c.name for c in assigned] == ["batch"] * 5 + ["interactive"]
    # Deterministic: the assignment is part of the trace.
    assert assign_slo_classes(6, classes) == assigned


def test_generate_requests_carries_slo_classes():
    classes = [SLOClass("fast", 0.25, 3.0), SLOClass("slow", None, 1.0)]
    reqs = generate_requests(4, pattern="burst", slo=classes)
    assert [r.slo_class for r in reqs] == ["fast", "fast", "fast", "slow"]
    assert [r.deadline_s for r in reqs] == [0.25, 0.25, 0.25, None]


# -- corrupted cache reads self-heal ----------------------------------------

def test_corrupt_cache_read_self_heals(tmp_path):
    cache = ResultCache(cache_dir=tmp_path)
    cache.put("ab" * 32, {"x": 1})
    with faults.install(FaultPlan.from_spec("corrupt@read=0")):
        assert cache.get("ab" * 32) is None  # scribbled, dropped, miss
    assert cache.stats.corrupt == 1
    assert not cache.path_for("ab" * 32).exists()  # entry unlinked
    cache.put("ab" * 32, {"x": 2})  # recompute-and-overwrite path
    assert cache.get("ab" * 32) == {"x": 2}


# -- session-level recovery primitives ---------------------------------------

def test_session_kill_marks_unhealthy_and_refuses_progress():
    engine = make_tiny_engine(sampler="ddpm", num_steps=3)
    shape = (1,) + engine.pipeline.sample_shape
    noise = np.random.default_rng(0).standard_normal(shape)
    session = engine.open_session()
    session.admit(noise, rng=np.random.default_rng(1), tag=0)
    with faults.install(FaultPlan.from_spec("kill@step=0")):
        with pytest.raises(SessionKilled):
            session.step()
    assert not session.healthy
    assert "injected session kill" in session.unhealthy_reason
    with pytest.raises(RuntimeError, match="unhealthy"):
        session.step()
    with pytest.raises(RuntimeError, match="unhealthy"):
        session.admit(noise, rng=np.random.default_rng(2), tag=1)
    # The rows stay readable for recovery; only forward progress is refused.
    [(tag, step, x, history)] = session.snapshot()
    assert (tag, step, history) == (0, 0, ())
    np.testing.assert_array_equal(x, noise)
    session.close()


def test_snapshot_readmission_into_fresh_session_bit_exact():
    """The crash-recovery primitive in isolation: snapshot mid-flight rows,
    close the session, re-admit each latent at its recorded step on a fresh
    session with a fast-forwarded stream - bit-exact with the uninterrupted
    batch-1 run."""
    engine = make_tiny_engine(sampler="ddpm", num_steps=4)
    shape = (1,) + engine.pipeline.sample_shape

    def stream(i):
        return np.random.default_rng(np.random.SeedSequence(9, spawn_key=(i,)))

    noises = [np.random.default_rng(20 + i).standard_normal(shape) for i in range(2)]
    session = engine.open_session()
    streams = {}
    for i in range(2):
        streams[i] = ReplayableRNG(stream(i))
        session.admit(noises[i], rng=streams[i], tag=i)
    session.step()  # both rows advance to step 1 (one draw each)
    inflight = session.snapshot()
    draws = {tag: streams[tag].draws for tag, *_ in inflight}
    session.close()  # the "crash"

    out = {}
    fresh = engine.open_session()
    for tag, step_k, x_k, history in inflight:
        rng = ReplayableRNG(stream(tag))  # rebuilt from the seed...
        rng.fast_forward(draws[tag], shape)  # ...past the recorded draws
        fresh.admit(x_k, rng=rng, tag=tag, step=step_k, history=history)
    out.update(fresh.run_to_completion())
    fresh.close()

    for i in range(2):
        reference = engine.run(
            x_init=noises[i], record_trace=False, rngs=[stream(i)]
        ).samples
        np.testing.assert_array_equal(out[i], reference)


@pytest.mark.parametrize("sampler", ["plms", "dpmpp"])
def test_multistep_rows_snapshot_readmission_bit_exact(sampler):
    """Rows of a multi-step sampler snapshotted mid-history (PLMS's eps ring
    partly filled, DPM-Solver++'s previous data prediction) and re-admitted
    into a fresh session continue bit-exactly: the history travels with the
    snapshot."""
    engine = make_tiny_engine(sampler=sampler, num_steps=6)
    shape = (1,) + engine.pipeline.sample_shape
    noises = [np.random.default_rng(30 + i).standard_normal(shape) for i in range(2)]
    session = engine.open_session()
    session.admit(noises[0], tag=0)
    session.step()
    session.admit(noises[1], tag=1)
    session.step()
    session.step()  # row 0 enters step 3, row 1 step 2
    inflight = session.snapshot()
    history_len = engine.pipeline.sampler.history_len
    assert [(step, len(history)) for _, step, _, history in inflight] == [
        (3, min(3, history_len)),
        (2, min(2, history_len)),
    ]
    session.close()  # the "crash"

    with engine.open_session() as fresh:
        _, step_0, x_0, _ = inflight[0]
        with pytest.raises(ValueError, match="history"):
            fresh.admit(x_0, step=step_0)  # the history was lost
        for tag, step_k, x_k, history in inflight:
            fresh.admit(x_k, tag=tag, step=step_k, history=history)
        out = fresh.run_to_completion()
    for i in range(2):
        reference = engine.run(x_init=noises[i]).samples
        np.testing.assert_array_equal(out[i], reference)


def test_session_admit_validates_step_range():
    engine = make_tiny_engine(num_steps=3)
    shape = (1,) + engine.pipeline.sample_shape
    with engine.open_session() as session:
        with pytest.raises(ValueError, match=r"\[0, 3\)"):
            session.admit(np.zeros(shape), step=3)
        with pytest.raises(ValueError, match=r"\[0, 3\)"):
            session.admit(np.zeros(shape), step=-1)


# -- end to end: faults through the scheduler --------------------------------

def _nonzero_counts(batch):
    """outcome_counts() without the zero entries (it keys every outcome)."""
    return {name: n for name, n in batch.outcome_counts().items() if n}


def _chaos_serve(fault_spec, *, sampler="ddpm", verify=True, **kwargs):
    """A 3-request burst trace at capacity 2 over a 3-step tiny engine."""
    defaults = dict(
        batch_sizes=(2,),
        num_requests=3,
        rate_rps=50.0,
        pattern="burst",
        seed=1,
        calibrate=False,
        scheduler="continuous",
        sampler=sampler,
        fault_spec=fault_spec,
        verify_invariance=verify,
    )
    defaults.update(kwargs)
    return simulate_serving(make_tiny_spec("tinyFaults", num_steps=3), **defaults)


def test_step_error_retried_bit_exact(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    report = _chaos_serve("error@req=0,step=1")
    batch = report.per_batch[2]
    assert batch.retries == 1
    assert batch.recoveries == 0
    assert _nonzero_counts(batch) == {"completed": 3}
    assert report.verified_requests == [0, 1, 2]  # bit-exact despite the retry
    assert "fault plan: error@req=0,step=1" in report.summary()
    assert "1 retried step(s), 0 session recovery(ies)" in report.summary()


def test_session_kill_recovers_bit_exact(monkeypatch, tmp_path):
    """The tentpole acceptance check: an injected mid-run session kill is
    recovered by rebuilding the engine (warm from the content-addressed
    cache) and re-admitting every in-flight row from its seed at its
    recorded step with its stream fast-forwarded - and --verify proves the
    recovered outputs bit-exact."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    report = _chaos_serve("kill@req=1,step=1")
    batch = report.per_batch[2]
    # The kill is recovered at once: a handler that skipped the recovery
    # would still end bit-exact, via retries of the dead session.
    assert batch.retries == 0
    assert batch.recoveries == 1
    assert _nonzero_counts(batch) == {"completed": 3}
    assert report.verified_requests == [0, 1, 2]
    # The recovery warmed the engine-object cache for the next rebuild.
    assert ResultCache(cache_dir=tmp_path).entry_count() >= 1


def test_recovery_exhaustion_fails_inflight_rows(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    report = _chaos_serve(
        "kill@req=0,step=1,times=*",
        sampler=None,  # deterministic ddim: no streams to rebuild
        verify=False,
    )
    batch = report.per_batch[2]
    # Every recovery re-admits request 0 at row-step 1, where it is killed
    # again: once MAX_RECOVERIES rebuilds are spent, both in-flight rows
    # fail and the queued request completes on a fresh session.
    assert batch.retries == 0
    assert batch.recoveries == MAX_RECOVERIES
    assert _nonzero_counts(batch) == {"failed": 2, "completed": 1}
    assert batch.outcomes == {0: "failed", 1: "failed", 2: "completed"}
    by_id = {s.req_id: s for s in batch.served}
    assert by_id[2].launch_s >= by_id[0].finish_s == by_id[1].finish_s
    assert by_id[2].batch_fill == 1


def test_injected_delay_expires_deadlines():
    report = _chaos_serve(
        "delay@step=0,ms=5000",
        sampler=None,
        verify=False,
        slo="default:1.0",
    )
    batch = report.per_batch[2]
    # The 5 s injected latency lands on the simulated clock after the first
    # step: the two in-flight rows blow their 1 s deadline at the next
    # boundary and the queued request is already expired at admission.
    assert _nonzero_counts(batch) == {"expired": 3}
    (cls,) = batch.slo
    assert (cls.total, cls.expired, cls.completed) == (3, 3, 0)
    assert cls.goodput == 0.0
    assert cls.abandonment == 1.0
    assert np.isnan(cls.latency_p99_s)


def test_verify_refuses_when_nothing_completed():
    with pytest.raises(AssertionError, match="nothing to check"):
        _chaos_serve("delay@step=0,ms=5000", sampler=None, slo="default:1.0")


def test_cancel_evicts_mid_flight_survivors_exact(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    report = _chaos_serve("cancel@req=1,step=1")
    batch = report.per_batch[2]
    assert batch.outcomes[1] == "cancelled"
    assert _nonzero_counts(batch) == {"completed": 2, "cancelled": 1}
    # The cancelled row's eviction must not perturb the survivors.
    assert report.verified_requests == [0, 2]
    assert "2 completed request(s) verified bit-exact" in report.summary()


def test_same_fault_plan_twice_identical_accounting(monkeypatch, tmp_path):
    """The determinism pin: replaying the same trace under the same fault
    plan yields identical outcome accounting (timings excluded - they are
    measured, the accounting is simulated)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    spec = "error@req=0,step=1;kill@req=1,step=2;cancel@req=2,step=1"
    slo = "batch::2,interactive:10:1"

    def accounting():
        report = _chaos_serve(spec, slo=slo, verify=False)
        batch = report.per_batch[2]
        return {
            "outcomes": batch.outcomes,
            "counts": batch.outcome_counts(),
            "retries": batch.retries,
            "recoveries": batch.recoveries,
            "slo": [
                (c.name, c.total, c.completed, c.expired, c.cancelled, c.failed)
                for c in batch.slo
            ],
        }

    first, second = accounting(), accounting()
    assert first == second
    assert first["recoveries"] == 1
    assert sum(first["counts"].values()) == 3  # every request accounted


def test_slo_accounting_is_total(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    report = _chaos_serve(
        "kill@req=0,step=1;cancel@req=2,step=1",
        slo="batch::2,interactive:10:1",
        verify=False,
    )
    batch = report.per_batch[2]
    for cls in batch.slo:
        assert cls.total == cls.completed + cls.expired + cls.cancelled + cls.failed
    assert sum(c.total for c in batch.slo) == 3
    assert "SLO accounting" in report.summary()
    payload = report.per_batch[2].to_json()
    assert {entry["name"] for entry in payload["slo"]} == {"batch", "interactive"}


def test_env_fault_spec_retried_under_fixed_scheduler(monkeypatch, tmp_path):
    """$REPRO_FAULTS reaches a lockstep serve, whose failed step is retried
    as an exact replay like any other."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_FAULTS", "error@req=0,step=1")
    report = _chaos_serve(None, scheduler="fixed")
    batch = report.per_batch[2]
    assert report.fault_spec == "error@req=0,step=1"
    assert (batch.retries, batch.recoveries) == (1, 0)
    assert _nonzero_counts(batch) == {"completed": 3}
    assert report.verified_requests == [0, 1, 2]


def test_fixed_scheduler_kill_recovers_bit_exact(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    report = _chaos_serve("kill@req=1,step=1", scheduler="fixed")
    batch = report.per_batch[2]
    assert batch.recoveries == 1
    assert _nonzero_counts(batch) == {"completed": 3}
    # The lockstep batches survive recovery: {0, 1} then {2}.
    assert [s.batch_fill for s in batch.served] == [2, 2, 1]
    assert report.verified_requests == [0, 1, 2]


def test_fixed_deadline_evicts_mid_flight_survivors_exact():
    """A lockstep batch loses a row to its deadline mid-trajectory; the
    batch-mate finishes bit-exact and the next batch launches after it."""
    report = _chaos_serve(
        "delay@step=0,ms=5000",
        sampler=None,
        scheduler="fixed",
        slo="batch::1,interactive:1:1",  # requests 0, 2 batch; 1 interactive
    )
    batch = report.per_batch[2]
    # The 5 s delay after the first step trips request 1's 1 s deadline at
    # the next boundary; request 0 runs on alone.
    assert batch.outcomes == {0: "completed", 1: "expired", 2: "completed"}
    first, expired, last = sorted(batch.served, key=lambda s: s.req_id)
    assert (expired.launch_s, expired.batch_fill) == (first.launch_s, 0)
    assert expired.finish_s < first.finish_s <= last.launch_s
    assert first.batch_fill == 1
    assert report.verified_requests == [0, 2]


# -- verify failure reporting (satellite a) ----------------------------------

def test_verify_failure_names_request_and_deviation():
    engine = make_tiny_engine(num_steps=2)
    requests = generate_requests(2, pattern="burst", seed=0)
    noises = [r.draw_noise(engine.pipeline.sample_shape) for r in requests]
    good = {
        r.req_id: engine.run(x_init=n, record_trace=False).samples
        for r, n in zip(requests, noises)
    }
    outcomes = {0: "completed", 1: "completed"}
    assert _verify("tiny", engine, requests, noises, good, outcomes, 2) == [0, 1]
    bad = dict(good)
    bad[1] = bad[1] + 1e-3
    with pytest.raises(AssertionError) as err:
        _verify("tiny", engine, requests, noises, bad, outcomes, 2)
    message = str(err.value)
    assert "request 1" in message
    assert "2 steps" in message
    assert "max |delta|=" in message and "max rel=" in message


def test_verify_reports_lost_and_sampleless_requests():
    engine = make_tiny_engine(num_steps=2)
    requests = generate_requests(2, pattern="burst", seed=0)
    noises = [r.draw_noise(engine.pipeline.sample_shape) for r in requests]
    with pytest.raises(AssertionError, match=r"lost requests \[1\]"):
        _verify("tiny", engine, requests, noises, {}, {0: "completed"}, 2)
    outcomes = {0: "completed", 1: "cancelled"}
    with pytest.raises(AssertionError, match="no sample"):
        _verify("tiny", engine, requests, noises, {}, outcomes, 2)


# -- CLI surface -------------------------------------------------------------

def test_cli_serve_fault_flags_smoke(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    from repro.cli import main

    code = main(
        [
            "serve", "DDPM", "--steps", "3", "--requests", "3",
            "--batch-sizes", "2", "--scheduler", "continuous",
            "--pattern", "burst", "--verify",
            "--slo", "batch::2,interactive:10:1",
            "--fault-spec", "error@req=0,step=1;kill@req=1,step=2",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "fault plan:" in out
    assert "SLO accounting" in out
    assert "session recovery(ies)" in out
    assert "verified bit-exact" in out


def test_cli_serve_refuses_zero_deadline(capsys):
    """A single deadline is stated as one SLO class, so it passes the SLO
    parser's check: a zero deadline, which would expire every request at
    admission, is refused before any engine is built."""
    from repro.cli import main

    with pytest.raises(SystemExit) as err:
        main(["serve", "DDPM", "--steps", "2", "--requests", "2",
              "--batch-sizes", "2", "--slo", "default:0"])
    assert "deadline must be > 0" in str(err.value.code)
    assert "DDPM: 2 requests" not in capsys.readouterr().out
