"""End-to-end bit-exactness: the Ditto algorithm never changes the output.

This is the reproduction's strongest correctness statement (paper Section
IV: "ensuring numerical equivalent results with original operations"): a
full reverse-diffusion trajectory executed with temporal difference
processing produces *exactly* the samples of the dense quantized model, for
every model family - UNets, cross-attention UNets, and adaLN transformers.
"""

import numpy as np
import pytest
from helpers import assert_temporal_state_held

from repro.core.modes import ExecutionMode
from repro.diffusion import DiffusionSchedule, GenerationPipeline, make_sampler
from repro.models import UNet, build_dit, build_text_encoder
from repro.quant import (
    quantize_model,
    reset_model_state,
    set_model_mode,
)


def run_pipeline(qmodel, pipeline, mode, seed=9):
    """Run a trajectory with every layer in ``mode``.

    A TEMPORAL layer finds no state on the first model call and executes
    dense; every later call runs on the temporal difference.
    """
    reset_model_state(qmodel)
    set_model_mode(qmodel, mode)
    out = pipeline.generate(1, np.random.default_rng(seed))
    if mode is ExecutionMode.TEMPORAL:
        assert_temporal_state_held(qmodel)
    return out


def small_unet(block_type, context_dim=None, seed=3):
    return UNet(
        in_channels=2,
        base_channels=8,
        channel_mults=(1, 2),
        attention_levels=(1,),
        block_type=block_type,
        context_dim=context_dim,
        rng=np.random.default_rng(seed),
    )


@pytest.mark.parametrize("sampler_name", ["ddim", "plms", "ddpm"])
def test_unet_temporal_bit_exact(sampler_name):
    qmodel = quantize_model(small_unet("attention"))
    schedule = DiffusionSchedule(100)
    sampler = make_sampler(sampler_name, schedule, 4)
    pipeline = GenerationPipeline(qmodel, sampler, (2, 8, 8))
    dense = run_pipeline(qmodel, pipeline, ExecutionMode.DENSE)
    temporal = run_pipeline(qmodel, pipeline, ExecutionMode.TEMPORAL)
    np.testing.assert_allclose(temporal, dense, rtol=1e-9, atol=1e-12)


def test_unet_spatial_bit_exact():
    qmodel = quantize_model(small_unet("attention"))
    sampler = make_sampler("ddim", DiffusionSchedule(100), 4)
    pipeline = GenerationPipeline(qmodel, sampler, (2, 8, 8))
    dense = run_pipeline(qmodel, pipeline, ExecutionMode.DENSE)
    spatial = run_pipeline(qmodel, pipeline, ExecutionMode.SPATIAL)
    np.testing.assert_allclose(spatial, dense, rtol=1e-9, atol=1e-12)


def test_cross_attention_unet_temporal_bit_exact():
    encoder = build_text_encoder()
    ctx = encoder.encode(["a white vase with yellow tulips"])
    qmodel = quantize_model(small_unet("transformer", context_dim=16))
    sampler = make_sampler("ddim", DiffusionSchedule(100), 4)
    pipeline = GenerationPipeline(
        qmodel, sampler, (2, 8, 8), conditioning={"context": ctx}
    )
    dense = run_pipeline(qmodel, pipeline, ExecutionMode.DENSE)
    temporal = run_pipeline(qmodel, pipeline, ExecutionMode.TEMPORAL)
    np.testing.assert_allclose(temporal, dense, rtol=1e-9, atol=1e-12)


def test_dit_temporal_bit_exact():
    qmodel = quantize_model(build_dit())
    sampler = make_sampler("ddim", DiffusionSchedule(100), 3)
    pipeline = GenerationPipeline(
        qmodel, sampler, (4, 16, 16), conditioning={"y": np.array([1])}
    )
    dense = run_pipeline(qmodel, pipeline, ExecutionMode.DENSE)
    temporal = run_pipeline(qmodel, pipeline, ExecutionMode.TEMPORAL)
    np.testing.assert_allclose(temporal, dense, rtol=1e-9, atol=1e-12)


def test_quantized_close_to_fp32():
    """8-bit quantization stays close to the FP32 trajectory (Table II)."""
    from repro.metrics import snr_db
    from repro.quant import calibrate_model

    fp = small_unet("attention")
    sampler = make_sampler("ddim", DiffusionSchedule(100), 4)
    pipeline = GenerationPipeline(fp, sampler, (2, 8, 8))
    reference = pipeline.generate(1, np.random.default_rng(5))
    scales = calibrate_model(fp, lambda: pipeline.generate(1, np.random.default_rng(6)))
    qmodel = quantize_model(fp, calibration=scales)
    pipeline.model = qmodel
    reset_model_state(qmodel)
    quantized = pipeline.generate(1, np.random.default_rng(5))
    assert snr_db(reference, quantized) > 10.0


def test_batched_trajectory_bit_exact():
    """Temporal processing differences each batch element against itself."""
    qmodel = quantize_model(small_unet("attention", seed=8))
    sampler = make_sampler("ddim", DiffusionSchedule(100), 3)
    pipeline = GenerationPipeline(qmodel, sampler, (2, 8, 8))

    def run(mode, batch):
        reset_model_state(qmodel)
        set_model_mode(qmodel, mode)
        out = pipeline.generate(batch, np.random.default_rng(2))
        if mode is ExecutionMode.TEMPORAL:
            assert_temporal_state_held(qmodel)
        return out

    dense = run(ExecutionMode.DENSE, batch=4)
    temporal = run(ExecutionMode.TEMPORAL, batch=4)
    np.testing.assert_allclose(temporal, dense, rtol=1e-9, atol=1e-12)
    # Batch elements evolve independently of one another.
    assert not np.allclose(dense[0], dense[1])
