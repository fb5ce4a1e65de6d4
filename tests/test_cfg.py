"""Tests for classifier-free guidance (CFG) under the Ditto algorithm.

Stable-Diffusion-style inference evaluates the denoiser twice per step
(conditional + unconditional) and extrapolates.  The pipeline implements
this as one stacked batch, which keeps the per-layer temporal state layout
identical across steps - so Ditto's difference processing remains bit-exact
even with guidance enabled.
"""

import numpy as np
import pytest

from repro.core.modes import ExecutionMode
from repro.diffusion import DiffusionSchedule, GenerationPipeline, make_sampler
from repro.models import build_text_encoder
from repro.models.unet import UNet
from repro.nn import Module
from repro.quant import (
    iter_qlayers,
    quantize_model,
    reset_model_state,
    set_model_mode,
)


class EchoModel(Module):
    """Returns context-dependent pseudo-noise; records call batches."""

    def __init__(self):
        super().__init__()
        self.batches = []

    def forward(self, x, t, context=None):
        self.batches.append(x.shape[0])
        if context is None:
            return 0.1 * x
        bias = context.mean(axis=(1, 2))[:, None, None, None]
        return 0.1 * x + bias


def make_pipeline(model, guidance=None, batch_ctx=None):
    sched = DiffusionSchedule(100)
    ctx = np.ones((1, 2, 4)) if batch_ctx is None else batch_ctx
    uncond = {"context": np.zeros_like(ctx)} if guidance else None
    return GenerationPipeline(
        model,
        make_sampler("ddim", sched, 3),
        (2, 4, 4),
        conditioning={"context": ctx},
        guidance_scale=guidance,
        uncond_conditioning=uncond,
    )


def test_cfg_requires_uncond():
    with pytest.raises(ValueError):
        GenerationPipeline(
            EchoModel(), make_sampler("ddim", DiffusionSchedule(100), 3),
            (2, 4, 4), guidance_scale=7.5,
        )


def test_cfg_key_sets_must_match():
    sampler = make_sampler("ddim", DiffusionSchedule(100), 3)
    ctx = np.ones((1, 2, 4))
    # A key only in conditioning used to raise a bare KeyError mid-step; a
    # key only in uncond was silently dropped. Both now fail at construction.
    with pytest.raises(ValueError, match="missing from uncond: \\['context'\\]"):
        GenerationPipeline(
            EchoModel(), sampler, (2, 4, 4),
            conditioning={"context": ctx},
            guidance_scale=5.0,
            uncond_conditioning={},
        )
    with pytest.raises(ValueError, match="only in uncond: \\['extra'\\]"):
        GenerationPipeline(
            EchoModel(), sampler, (2, 4, 4),
            conditioning={"context": ctx},
            guidance_scale=5.0,
            uncond_conditioning={"context": 0 * ctx, "extra": ctx},
        )


def test_cfg_merged_identity_stable_across_steps():
    """CFG's stacked conditioning is memoized per batch size, so the cross-
    attention context cache (keyed by identity) holds across time steps."""
    model = EchoModel()
    pipe = make_pipeline(model, guidance=2.0)
    seen = []
    original_forward = model.forward

    def spying_forward(x, t, context=None):
        seen.append(id(context))
        return original_forward(x, t, context=context)

    model.forward = spying_forward
    pipe.generate(2, np.random.default_rng(0))
    assert len(set(seen)) == 1


def test_cfg_doubles_model_batch():
    model = EchoModel()
    pipe = make_pipeline(model, guidance=5.0)
    pipe.generate(2, np.random.default_rng(0))
    assert all(b == 4 for b in model.batches)  # 2 samples x 2 branches


def test_cfg_formula():
    model = EchoModel()
    pipe = make_pipeline(model, guidance=3.0)
    x = np.ones((1, 2, 4, 4))
    eps = pipe.predict_noise(x, 10)
    # cond branch: 0.1x + 1.0 ; uncond branch: 0.1x + 0.0
    expected = 0.1 * x + 0.0 + 3.0 * ((0.1 * x + 1.0) - (0.1 * x + 0.0))
    np.testing.assert_allclose(eps, expected, rtol=1e-12)


def test_guidance_scale_one_is_plain_conditional():
    model = EchoModel()
    pipe = make_pipeline(model, guidance=None)
    model2 = EchoModel()
    pipe2 = make_pipeline(model2, guidance=1.0)
    x = np.ones((1, 2, 4, 4))
    np.testing.assert_allclose(pipe.predict_noise(x, 5), pipe2.predict_noise(x, 5))
    assert model2.batches == [1]  # no stacking at scale 1.0


def test_conditioning_tiled_to_batch():
    model = EchoModel()
    pipe = make_pipeline(model)
    out = pipe.generate(3, np.random.default_rng(0))
    assert out.shape == (3, 2, 4, 4)


def test_cfg_changes_samples():
    model = EchoModel()
    plain = make_pipeline(model).generate(1, np.random.default_rng(4))
    guided = make_pipeline(model, guidance=7.5).generate(
        1, np.random.default_rng(4)
    )
    assert not np.allclose(plain, guided)


def test_cfg_ditto_bit_exact():
    """Temporal difference processing stays exact under CFG stacking."""
    encoder = build_text_encoder()
    ctx = encoder.encode(["a red bus parked on the street"])
    uncond_ctx = encoder.encode([""])
    qmodel = quantize_model(
        UNet(
            in_channels=2,
            base_channels=8,
            channel_mults=(1, 2),
            attention_levels=(1,),
            block_type="transformer",
            context_dim=16,
            rng=np.random.default_rng(3),
        )
    )
    sched = DiffusionSchedule(100)

    def run(mode):
        reset_model_state(qmodel)
        pipe = GenerationPipeline(
            qmodel,
            make_sampler("ddim", sched, 4),
            (2, 8, 8),
            conditioning={"context": ctx},
            guidance_scale=4.0,
            uncond_conditioning={"context": uncond_ctx},
        )
        set_model_mode(qmodel, mode)
        return pipe.generate(1, np.random.default_rng(9))

    dense = run(ExecutionMode.DENSE)
    temporal = run(ExecutionMode.TEMPORAL)
    # State is held, so every call after the first ran on differences.
    for name, q in iter_qlayers(qmodel):
        assert q._prev_q_in is not None or getattr(q, "_prev", None), name
    np.testing.assert_allclose(temporal, dense, rtol=1e-9, atol=1e-12)
