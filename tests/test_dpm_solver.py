"""Tests for the DPM-Solver++(2M) sampler extension."""

import numpy as np
import pytest

from repro.diffusion import (
    DiffusionSchedule,
    DPMSolverPlusPlusSampler,
    GenerationPipeline,
    make_sampler,
)
from repro.nn import Module


class ZeroModel(Module):
    def forward(self, x, t, **cond):
        return np.zeros_like(x)


@pytest.fixture
def sched():
    return DiffusionSchedule(1000)


def test_factory_knows_dpmpp(sched):
    assert isinstance(make_sampler("dpmpp", sched, 5), DPMSolverPlusPlusSampler)


def test_first_step_is_first_order(sched, rng):
    sampler = DPMSolverPlusPlusSampler(sched, 10)
    x = rng.normal(size=(1, 2, 4, 4))
    eps = rng.normal(size=x.shape)
    out, history = sampler.step(eps, 0, x)
    assert out.shape == x.shape
    alpha, sigma, _ = sampler._coeffs(int(sampler.timesteps[0]))
    (x0,) = history  # the data prediction the next step's 2M correction reads
    np.testing.assert_array_equal(x0, (x - sigma * eps) / alpha)


def test_deterministic(sched, rng):
    x = rng.normal(size=(1, 2, 4, 4))
    eps = rng.normal(size=x.shape)
    a, _ = DPMSolverPlusPlusSampler(sched, 10).step(eps, 0, x)
    b, _ = DPMSolverPlusPlusSampler(sched, 10).step(eps, 0, x)
    np.testing.assert_array_equal(a, b)


def test_final_step_returns_data_prediction(sched, rng):
    """The jump to a_bar=1 returns the (extrapolated) x0 estimate."""
    sampler = DPMSolverPlusPlusSampler(sched, 4)
    x0 = rng.normal(size=(1, 2, 4, 4))
    last = len(sampler.timesteps) - 1
    t = int(sampler.timesteps[last])
    a = sched.alpha_bar(t)
    eps = rng.normal(size=x0.shape)
    xt = np.sqrt(a) * x0 + np.sqrt(1 - a) * eps
    out, _ = sampler.step(eps, last, xt)
    np.testing.assert_allclose(out, x0, rtol=1e-6)


def test_converges_like_ddim_with_zero_model(sched):
    """With eps == 0 both solvers drive x toward x / sqrt-schedule limits."""
    pipe_ddim = GenerationPipeline(ZeroModel(), make_sampler("ddim", sched, 12), (2, 4, 4))
    pipe_dpm = GenerationPipeline(ZeroModel(), make_sampler("dpmpp", sched, 12), (2, 4, 4))
    a = pipe_ddim.generate(1, np.random.default_rng(3))
    b = pipe_dpm.generate(1, np.random.default_rng(3))
    # eps=0 means x0 = x / sqrt(a_bar) at every step; both exact solvers of
    # the same ODE must agree closely.
    np.testing.assert_allclose(a, b, rtol=1e-6)


def test_pipeline_end_to_end_with_real_model(sched):
    from repro.models import build_ddpm_unet

    model = build_ddpm_unet()
    pipe = GenerationPipeline(model, make_sampler("dpmpp", sched, 6), (3, 16, 16))
    out = pipe.generate(1, np.random.default_rng(0))
    assert out.shape == (1, 3, 16, 16)
    assert np.isfinite(out).all()
