#!/usr/bin/env python
"""Text-to-image generation with a Ditto-accelerated SDM-style pipeline.

The paper's motivating workload (Fig. 3a uses the prompt "a white vase with
yellow tulips against a grey background"): encode a prompt with the toy text
encoder, denoise a latent with the PLMS sampler under the Ditto algorithm,
decode it with the toy VAE, and compare the FP32 and Ditto outputs with the
CLIP-score proxy and pixel-level SNR - an end-to-end Table II measurement
for one prompt.

Pass a guidance scale as the second argument to enable classifier-free
guidance (the denoiser then runs conditional + unconditional branches as one
stacked batch, which keeps Ditto's temporal state valid - see
tests/test_cfg.py for the bit-exactness proof).

Run:  python examples/text_to_image.py ["your prompt"] [guidance_scale]
"""

import sys

import numpy as np

from repro.core import DittoEngine, EngineConfig
from repro.diffusion import DiffusionSchedule, GenerationPipeline, make_sampler
from repro.metrics import FeatureExtractor, clip_score, snr_db
from repro.models import build_conditional_unet, build_text_encoder, build_vae
from repro.workloads import get_benchmark

DEFAULT_PROMPT = "a white vase with yellow tulips against a grey background"


def main() -> None:
    prompt = sys.argv[1] if len(sys.argv) > 1 else DEFAULT_PROMPT
    guidance = float(sys.argv[2]) if len(sys.argv) > 2 else None
    print(f"prompt: {prompt!r}" + (f", guidance {guidance}" if guidance else ""))

    encoder = build_text_encoder()
    context = encoder.encode([prompt])
    uncond = {"context": encoder.encode([""])} if guidance else None
    spec = get_benchmark("SDM")

    # -- FP32 reference trajectory ------------------------------------------
    fp_model = build_conditional_unet(seed=13)
    sampler = make_sampler("plms", DiffusionSchedule(1000), spec.num_steps)
    pipeline = GenerationPipeline(
        fp_model, sampler, spec.sample_shape, {"context": context},
        guidance_scale=guidance, uncond_conditioning=uncond,
    )
    fp_latents = pipeline.generate(1, np.random.default_rng(0))

    # -- Ditto trajectory (quantized + temporal difference processing) -------
    engine = DittoEngine.from_model(
        build_conditional_unet(seed=13),
        EngineConfig(num_steps=spec.num_steps, guidance_scale=guidance, sampler="plms"),
        sample_shape=spec.sample_shape,
        conditioning={"context": context},
        uncond_conditioning=uncond,
        benchmark="SDM",
    )
    result = engine.run(seed=0)
    print(result.summary())

    # -- decode and score ------------------------------------------------------
    vae = build_vae()
    fp_image = vae.decode(fp_latents)
    ditto_image = vae.decode(result.samples)
    extractor = FeatureExtractor(image_channels=3)
    cs_fp = clip_score(fp_image, [prompt], extractor)
    cs_ditto = clip_score(ditto_image, [prompt], extractor)
    print(f"decoded image shape: {ditto_image.shape}")
    print(f"CLIP-score proxy: fp32 {cs_fp:.4f} vs ditto {cs_ditto:.4f}")
    print(f"pixel SNR of Ditto vs FP32: {snr_db(fp_image, ditto_image):.1f} dB")
    print(
        "latent drift per step is tiny - that is the temporal similarity "
        "Ditto exploits (paper Fig. 3/4)."
    )


if __name__ == "__main__":
    main()
