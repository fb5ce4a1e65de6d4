"""Regression tests: float32 in -> float32 out on the hot numeric modules.

The NEP-50 leak class RPL001 guards against: a numpy float64 *scalar*
(e.g. ``np.sqrt(python_float)``) is "strong" and silently promotes float32
arrays, re-widening the float32 calibration fast path.  These tests pin the
contract per module so a reintroduced leak fails immediately, not just in
the source-rule scan (``tests/test_source_rules.py``).
"""

import numpy as np
import pytest

from repro.diffusion import DiffusionSchedule
from repro.diffusion.samplers import make_sampler
from repro.nn import functional as F
from repro.nn.embeddings import LabelEmbedding, PatchEmbed, TimestepEmbedding


@pytest.fixture
def schedule():
    return DiffusionSchedule(num_train_steps=100)


def _cast_params(module, dt):
    for _, param in module.named_parameters():
        param.data = param.data.astype(dt)


# ---------------------------------------------------------------------------
# diffusion/schedule.py
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_add_noise_preserves_dtype(schedule, dtype):
    rng = np.random.default_rng(0)
    x0 = np.ones((1, 2, 4, 4), dtype=dtype)
    x_t, eps = schedule.add_noise(x0, 50, rng)
    assert x_t.dtype == dtype
    assert eps.dtype == dtype


# ---------------------------------------------------------------------------
# diffusion/samplers.py
# ---------------------------------------------------------------------------


def _run_steps(sampler, dtype, n_steps=4, needs_rng=False):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((1, 2, 4, 4)).astype(dtype)
    history = ()
    for index in range(n_steps):
        eps = rng.standard_normal(x.shape).astype(dtype)
        x, history = sampler.step(
            eps, index, x, rng=rng if needs_rng else None, history=history
        )
        assert x.dtype == dtype, f"step {index} promoted to {x.dtype}"
    return x


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_ddim_preserves_dtype(schedule, dtype):
    _run_steps(make_sampler("ddim", schedule, 10), dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_stochastic_ddim_preserves_dtype(schedule, dtype):
    sampler = make_sampler("ddim", schedule, 10, eta=0.5)
    _run_steps(sampler, dtype, needs_rng=True)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_ddpm_preserves_dtype(schedule, dtype):
    # n_steps=10 walks through to the final (noise-free mean) step as well.
    sampler = make_sampler("ddpm", schedule, 10)
    _run_steps(sampler, dtype, n_steps=10, needs_rng=True)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_plms_preserves_dtype(schedule, dtype):
    # 4+ steps exercise every Adams-Bashforth history branch (warmup, 1, 2, 3+).
    sampler = make_sampler("plms", schedule, 10)
    _run_steps(sampler, dtype, n_steps=5)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dpmpp_preserves_dtype(schedule, dtype):
    # 10 steps reach the final clean-data jump plus the 2M correction path.
    sampler = make_sampler("dpmpp", schedule, 10)
    _run_steps(sampler, dtype, n_steps=10)


def test_samplers_unchanged_on_float64(schedule):
    # The math.*-for-np.* rewrite must be bit-exact on the legacy float64
    # path: both call the same correctly-rounded libm on a C double.
    rng = np.random.default_rng(7)
    x = rng.standard_normal((1, 2, 4, 4))
    eps = rng.standard_normal(x.shape)
    sampler = make_sampler("ddim", schedule, 10)
    a_bar = schedule.alpha_bar(int(sampler.timesteps[0]))
    a_bar_prev = schedule.alpha_bar(sampler.prev_timestep(0))
    x0 = (x - np.sqrt(1.0 - a_bar) * eps) / np.sqrt(a_bar)
    expected = np.sqrt(a_bar_prev) * x0 + np.sqrt(max(1.0 - a_bar_prev, 0.0)) * eps
    np.testing.assert_array_equal(sampler.step(eps, 0, x)[0], expected)


# ---------------------------------------------------------------------------
# nn/embeddings.py
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_timestep_embedding_preserves_dtype(dtype):
    module = TimestepEmbedding(8, 16, rng=np.random.default_rng(0))
    _cast_params(module, dtype)
    prev = F.embedding_dtype()
    F.set_embedding_dtype(dtype)
    try:
        out = module(np.array([3.0, 7.0]))
    finally:
        F.set_embedding_dtype(prev)
    assert out.dtype == dtype


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_patch_embed_preserves_dtype(dtype):
    module = PatchEmbed(2, 8, patch=2, rng=np.random.default_rng(0))
    _cast_params(module, dtype)
    out = module(np.ones((1, 2, 4, 4), dtype=dtype))
    assert out.dtype == dtype


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_label_embedding_preserves_dtype(dtype):
    module = LabelEmbedding(4, 8, rng=np.random.default_rng(0))
    _cast_params(module, dtype)
    out = module(np.array([1, 3]))
    assert out.dtype == dtype
