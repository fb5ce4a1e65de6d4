"""Unit tests for the generation pipeline driver."""

import numpy as np
import pytest

from repro.diffusion import (
    DDIMSampler,
    DiffusionSchedule,
    GenerationPipeline,
    PLMSSampler,
)
from repro.nn import Module


class ZeroModel(Module):
    """Predicts zero noise; DDIM then just rescales x."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def forward(self, x, t, **cond):
        self.calls.append((int(t[0]), dict(cond)))
        return np.zeros_like(x)


@pytest.fixture
def sched():
    return DiffusionSchedule(100)


def test_generate_shape(sched):
    pipe = GenerationPipeline(ZeroModel(), DDIMSampler(sched, 5), (2, 4, 4))
    out = pipe.generate(batch_size=3, rng=np.random.default_rng(0))
    assert out.shape == (3, 2, 4, 4)


def test_generate_deterministic_given_seed(sched):
    pipe = GenerationPipeline(ZeroModel(), DDIMSampler(sched, 5), (2, 4, 4))
    a = pipe.generate(1, np.random.default_rng(7))
    b = pipe.generate(1, np.random.default_rng(7))
    np.testing.assert_array_equal(a, b)


def test_conditioning_forwarded(sched):
    model = ZeroModel()
    ctx = np.ones((1, 3, 4))
    pipe = GenerationPipeline(model, DDIMSampler(sched, 3), (2, 4, 4), {"context": ctx})
    pipe.generate(1, np.random.default_rng(0))
    assert all("context" in cond for _, cond in model.calls)


def test_x_init_override(sched):
    pipe = GenerationPipeline(ZeroModel(), DDIMSampler(sched, 2), (2, 4, 4))
    x0 = np.zeros((1, 2, 4, 4))
    out = pipe.generate(1, np.random.default_rng(0), x_init=x0)
    np.testing.assert_array_equal(out, 0.0)  # zero eps keeps zero trajectory


def test_x_init_shape_checked(sched):
    pipe = GenerationPipeline(ZeroModel(), DDIMSampler(sched, 2), (2, 4, 4))
    with pytest.raises(ValueError):
        pipe.generate(1, x_init=np.zeros((1, 3, 4, 4)))


def test_num_model_calls_ddim(sched):
    pipe = GenerationPipeline(ZeroModel(), DDIMSampler(sched, 5), (2, 4, 4))
    assert pipe.num_model_calls() == 5


def test_num_model_calls_plms_extra_step(sched):
    pipe = GenerationPipeline(ZeroModel(), PLMSSampler(sched, 5), (2, 4, 4))
    assert pipe.num_model_calls() == 6  # warmup adds one


def test_plms_pipeline_actually_makes_extra_call(sched):
    model = ZeroModel()
    pipe = GenerationPipeline(model, PLMSSampler(sched, 5), (2, 4, 4))
    pipe.generate(1, np.random.default_rng(0))
    assert len(model.calls) == 6


def test_scalar_conditioning_rejected_with_clear_message(sched):
    pipe = GenerationPipeline(
        ZeroModel(), DDIMSampler(sched, 2), (2, 4, 4), {"scale": np.float64(2.0)}
    )
    with pytest.raises(ValueError, match="'scale' is 0-d"):
        pipe.generate(1, np.random.default_rng(0))


def test_mismatched_conditioning_batch_rejected(sched):
    # Batch dim 3 can neither broadcast to nor match a batch of 2.
    pipe = GenerationPipeline(
        ZeroModel(), DDIMSampler(sched, 2), (2, 4, 4),
        {"context": np.ones((3, 2, 4))},
    )
    with pytest.raises(ValueError, match="'context' has batch dimension 3"):
        pipe.generate(2, np.random.default_rng(0))


def test_conditioning_matching_batch_passes_through(sched):
    model = ZeroModel()
    ctx = np.arange(12.0).reshape(2, 3, 2)
    pipe = GenerationPipeline(model, DDIMSampler(sched, 2), (2, 4, 4), {"context": ctx})
    pipe.generate(2, np.random.default_rng(0))
    np.testing.assert_array_equal(model.calls[0][1]["context"], ctx)


def test_tiled_conditioning_identity_stable_across_steps(sched):
    """Tiles are memoized: every step must see the same array object, or the
    cross-attention K'/V' cache (keyed by context identity) is defeated."""
    model = ZeroModel()
    pipe = GenerationPipeline(
        model, DDIMSampler(sched, 3), (2, 4, 4), {"context": np.ones((1, 3, 4))}
    )
    pipe.generate(4, np.random.default_rng(0))
    ids = {id(cond["context"]) for _, cond in model.calls}
    assert len(ids) == 1
    assert model.calls[0][1]["context"].shape == (4, 3, 4)
