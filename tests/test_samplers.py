"""Unit tests for DDIM / DDPM / PLMS samplers."""

import numpy as np
import pytest

from repro.diffusion import (
    DDIMSampler,
    DDPMSampler,
    DiffusionSchedule,
    PLMSSampler,
    make_sampler,
)


@pytest.fixture
def sched():
    return DiffusionSchedule(100)


def test_ddim_deterministic(sched, rng):
    sampler = DDIMSampler(sched, 10)
    x = rng.normal(size=(1, 2, 4, 4))
    eps = rng.normal(size=x.shape)
    a, _ = sampler.step(eps, 0, x)
    b, _ = sampler.step(eps, 0, x)
    np.testing.assert_array_equal(a, b)


def test_ddim_perfect_eps_recovers_x0(sched, rng):
    """If the model predicts the true noise, DDIM's final x is exactly x0."""
    sampler = DDIMSampler(sched, 10)
    x0 = rng.normal(size=(1, 2, 4, 4))
    t = int(sampler.timesteps[-1])  # last inference step jumps to a_bar=1
    a = sched.alpha_bar(t)
    eps = rng.normal(size=x0.shape)
    xt = np.sqrt(a) * x0 + np.sqrt(1 - a) * eps
    x_prev, _ = sampler.step(eps, len(sampler.timesteps) - 1, xt)
    np.testing.assert_allclose(x_prev, x0, rtol=1e-10)


def test_ddim_eta_requires_rng(sched, rng):
    sampler = DDIMSampler(sched, 10, eta=0.5)
    x = rng.normal(size=(1, 2, 2, 2))
    with pytest.raises(ValueError):
        sampler.step(x, 0, x, rng=None)
    out, history = sampler.step(x, 0, x, rng=rng)
    assert out.shape == x.shape
    assert history == ()  # single-step samplers carry nothing


def test_ddpm_requires_rng(sched, rng):
    sampler = DDPMSampler(sched, 10)
    x = rng.normal(size=(1, 2, 2, 2))
    with pytest.raises(ValueError):
        sampler.step(x, 0, x)


def test_ddpm_final_step_is_mean(sched, rng):
    """The jump to t=0 adds no noise: two rngs give identical results."""
    sampler = DDPMSampler(sched, 10)
    x = rng.normal(size=(1, 2, 2, 2))
    eps = rng.normal(size=x.shape)
    last = len(sampler.timesteps) - 1
    a, _ = sampler.step(eps, last, x, rng=np.random.default_rng(1))
    b, _ = sampler.step(eps, last, x, rng=np.random.default_rng(2))
    np.testing.assert_array_equal(a, b)


def test_plms_history_accumulates(sched, rng):
    """The returned history is the row's last eps values, newest last,
    capped at the three past values the 4th-order rule reads."""
    sampler = PLMSSampler(sched, 10)
    x = rng.normal(size=(1, 2, 2, 2))
    history = ()
    seen = []
    for i in range(5):
        assert len(history) == min(i, sampler.history_len)
        eps = rng.normal(size=x.shape)
        seen.append(eps)
        x, history = sampler.step(eps, i, x, history=history)
    assert len(history) == 3
    for got, want in zip(history, seen[-3:]):
        assert got is want


def test_plms_extra_model_call_at_first_step(sched):
    sampler = PLMSSampler(sched, 10)
    # Step 0 makes calls 0 and 1 (the warmup); later steps one call each.
    assert [sampler.call_index(i) for i in range(3)] == [0, 2, 3]
    np.testing.assert_array_equal(
        sampler.call_index(np.array([2, 0, 1])), [3, 0, 2]
    )


def test_plms_warmup_averages_the_extra_evaluation(sched, rng):
    """Step 0's improved Euler: the update uses the mean of the two
    evaluations; without the second one it is plain Euler."""
    sampler = PLMSSampler(sched, 10)
    x = rng.normal(size=(1, 2, 2, 2))
    eps = rng.normal(size=x.shape)
    eps_next = rng.normal(size=x.shape)
    warmed, history = sampler.step(eps, 0, x, eps_next=eps_next)
    euler, _ = sampler.step(0.5 * (eps + eps_next), 0, x)
    np.testing.assert_array_equal(warmed, euler)
    assert len(history) == 1 and history[0] is eps  # the raw eps is kept


@pytest.mark.parametrize("name", ["ddim", "ddpm", "plms", "dpmpp"])
def test_step_rows_equals_separate_batch1_steps(sched, rng, name):
    """Per-row history: rows at different step indices, each with its own
    history and stream, advanced in one ``step_rows`` call, equal their
    separate batch-1 steps bit for bit."""
    sampler = make_sampler(name, sched, 10)
    shape = (1, 2, 4, 4)

    def stream(r):
        return np.random.default_rng(100 + r)

    # Walk three rows to steps 0, 2 and 5 with batch-1 steps.
    starts = [0, 2, 5]
    xs, histories = [], []
    for start in starts:
        x, history = rng.normal(size=shape), ()
        for i in range(start):
            x, history = sampler.step(rng.normal(size=shape), i, x, rng, history)
        xs.append(x)
        histories.append(history)
    eps = rng.normal(size=(3,) + shape[1:])
    eps_next = {0: rng.normal(size=shape)}  # row 0 is at step 0
    batched_streams = [stream(r) for r in range(3)]
    single_streams = [stream(r) for r in range(3)]
    x_rows, new_histories = sampler.step_rows(
        eps, np.array(starts), np.concatenate(xs),
        batched_streams, histories, eps_next,
    )
    for r, start in enumerate(starts):
        want, want_history = sampler.step(
            eps[r : r + 1], start, xs[r], single_streams[r], histories[r],
            eps_next=eps_next.get(r),
        )
        np.testing.assert_array_equal(x_rows[r : r + 1], want)
        assert len(new_histories[r]) == len(want_history)
        for got, expect in zip(new_histories[r], want_history):
            np.testing.assert_array_equal(got, expect)


def test_prev_timestep_chain(sched):
    sampler = DDIMSampler(sched, 4)
    steps = sampler.timesteps
    for i in range(len(steps) - 1):
        assert sampler.prev_timestep(i) == steps[i + 1]
    assert sampler.prev_timestep(len(steps) - 1) == -1


def test_make_sampler_factory(sched):
    assert isinstance(make_sampler("ddim", sched, 5), DDIMSampler)
    assert isinstance(make_sampler("ddpm", sched, 5), DDPMSampler)
    assert isinstance(make_sampler("plms", sched, 5), PLMSSampler)
    with pytest.raises(ValueError):
        make_sampler("euler", sched, 5)


# -- pinned sampler outputs ---------------------------------------------------

# Three steps of every sampler on a 4-element latent, with the fixed affine
# noise prediction below and one seeded generator for the initial latent and
# all posterior noise.  Literal values (not a byte digest) so that every
# supported numpy version compares them; any change to an update rule, or to
# the number or order of draws, moves them.
PINNED_SAMPLES = {
    "ddpm": [1.4863356711087123, 2.1662511446242325, 1.762983771288603, -0.46378145315731745],
    "ddim": [1.2414285932733327, 1.7383822215946314, 1.3369689511775078, -0.3814372087629794],
    "ddim-eta": [1.048012121410418, 1.7105642083632298, 1.4166459872962174, -0.3138329010382901],
    "plms": [1.2788592653517168, 1.7815349801126759, 1.3754997061514533, -0.36269274374699023],
    "dpmpp": [1.4528560038991738, 1.9812115020756353, 1.5544334359161955, -0.272556631088298],
}


def _affine_eps(x, t):
    return 0.6 * x + 0.002 * t - 0.1


@pytest.mark.parametrize("case", list(PINNED_SAMPLES))
def test_sampler_outputs_pinned(case):
    name, eta = {"ddim-eta": ("ddim", 0.5)}.get(case, (case, None))
    sampler = make_sampler(name, DiffusionSchedule(100), 3, eta=eta)
    rng = np.random.default_rng(2024)
    x = 0.5 + rng.standard_normal((1, 1, 2, 2))
    history = ()
    for index in range(sampler.num_steps):
        eps = _affine_eps(x, int(sampler.timesteps[index]))
        eps_next = None
        if sampler.warmup and index == 0:
            eps_next = _affine_eps(*sampler.warmup_point(eps, x))
        x, history = sampler.step(
            eps,
            index,
            x,
            rng=rng if sampler.needs_rng else None,
            history=history,
            eps_next=eps_next,
        )
    np.testing.assert_allclose(x.ravel(), PINNED_SAMPLES[case], rtol=1e-12, atol=0)
