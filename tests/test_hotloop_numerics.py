"""Error-analysis suite for the PR-5 hot-loop rewrites.

The fused single-pass GroupNorm/LayerNorm reductions and the float32
calibration fast path both change floating-point arithmetic on the float
(calibration) side of the system - summation order for the norms, working
precision for the trajectory.  Neither touches the quantized integer paths,
so the property that must hold is narrower than bit-exactness and is pinned
here with explicit, measured bounds:

* **Kernel equivalence** - the fused norms match the pre-PR-5 multi-pass
  reference to ~1e-12 relative on realistic activations (observed ~1e-15;
  the fused ``E[x^2] - mean^2`` variance loses ~``mean^2/var`` ulps to
  cancellation, irrelevant for normalized-activation statistics).
* **Scale invariance** - per-layer calibration scales across all seven
  Table I benchmarks move by < 1e-12 relative under the fused norms
  (observed <= 2e-15) and by < 5e-6 relative under float32 calibration
  (observed <= 7e-7).  Both are orders of magnitude below the 8-bit
  quantization resolution of ``1/127 ~ 7.9e-3`` - no integer grid can move.
* **End metrics** - samples from engines calibrated in float32 vs float64
  agree to < 1e-2 relative L1 (observed 7e-4 pixel-space, 1e-7 DiT); the
  residual is quantization rounding flips at scale boundaries, the same
  magnitude PR 3's batch-independent probe scales introduced.

This file is the documented waiver ISSUE 5 asks for: the float calibration
path is *not* bit-exact with PR 4, and these bounds are why that is safe.

It also holds the GELU waiver.  :func:`repro.nn.functional.gelu` cubes as
``x * x * x`` instead of ``x ** 3`` (libm ``pow``, which is not correctly
rounded), so GELU outputs move by a few ulps:

* **Kernel equivalence** - within ``4 * eps * max(1, |x|)`` of the ``x ** 3``
  formula in float64 and float32 (observed <= 1 eps); the pooled in-place
  evaluation is bit-identical to the plain ``x * x * x`` formula.
* **Which samples move** - only benchmarks whose models contain a GELU: the
  transformer MLPs of IMG, SDM, DiT and Latte.  Their calibration scales
  stay within ``F32_SCALE_BOUND`` of an ``x ** 3`` build; their samples
  move through rounding flips at quantization-grid boundaries, the same
  mechanism and magnitude as the float32-calibration drift above (at 10
  steps, b1: relative L1 0 for DiT, ~3e-7 Latte, ~2e-2 IMG, ~4e-2 SDM).
  DDPM, BED and CHUR run no GELU; their scales and samples are
  bit-identical.
"""

import numpy as np
import pytest

from repro.core import DittoEngine
from repro.diffusion import DiffusionSchedule, GenerationPipeline, make_sampler
from repro.nn import functional as F
from repro.nn.layers import GELU, Conv2d
from repro.quant.calibration import calibrate_model, calibration_precision
from repro.runtime.hashing import engine_key
from repro.workloads import SUITE, get_benchmark

BENCHMARKS = list(SUITE)

# Measured headroom: observed fused-vs-reference scale drift is <= 2e-15,
# f32-vs-f64 drift <= 7e-7 (3-step trajectories, every benchmark).  The
# asserted bounds leave ~3 orders of magnitude of slack below quantization
# resolution while still catching any real numerics regression.
NORM_SCALE_BOUND = 1e-12
F32_SCALE_BOUND = 5e-6
END_METRIC_BOUND = 1e-2


# -- pre-PR-5 reference implementations (multi-pass, centered variance) ------

def ref_group_norm(x, num_groups, weight=None, bias=None, eps=1e-5):
    n, c, h, w = x.shape
    grouped = x.reshape(n, num_groups, c // num_groups, h, w)
    mean = grouped.mean(axis=(2, 3, 4), keepdims=True)
    centered = grouped - mean
    var = np.mean(centered * centered, axis=(2, 3, 4), keepdims=True)
    out = (centered / np.sqrt(var + eps)).reshape(n, c, h, w)
    if weight is not None:
        out = out * weight.reshape(1, c, 1, 1)
    if bias is not None:
        out = out + bias.reshape(1, c, 1, 1)
    return out


def ref_layer_norm(x, weight=None, bias=None, eps=1e-5):
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = np.mean(centered * centered, axis=-1, keepdims=True)
    out = centered / np.sqrt(var + eps)
    if weight is not None:
        out = out * weight
    if bias is not None:
        out = out + bias
    return out


# -- kernel equivalence ------------------------------------------------------

@pytest.mark.parametrize("offset", [0.0, 0.7, 100.0])
def test_group_norm_fused_matches_reference(offset):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((3, 16, 8, 8)) * 2.5 + offset
    w = rng.standard_normal(16)
    b = rng.standard_normal(16)
    np.testing.assert_allclose(
        F.group_norm(x, 4, w, b), ref_group_norm(x, 4, w, b),
        rtol=1e-9, atol=1e-9,
    )
    np.testing.assert_allclose(
        F.group_norm(x, 8), ref_group_norm(x, 8), rtol=1e-9, atol=1e-9
    )


def test_group_norm_fused_handles_strided_views():
    """Non-contiguous inputs (e.g. transposed views) reduce identically."""
    rng = np.random.default_rng(4)
    base = rng.standard_normal((2, 6, 6, 16))
    x = base.transpose(0, 3, 1, 2)  # (2, 16, 6, 6), strided
    assert not x.flags["C_CONTIGUOUS"]
    w = rng.standard_normal(16)
    b = rng.standard_normal(16)
    np.testing.assert_allclose(
        F.group_norm(x, 4, w, b),
        ref_group_norm(np.ascontiguousarray(x), 4, w, b),
        rtol=1e-9, atol=1e-9,
    )


def test_group_norm_fused_float32_inputs():
    """The f32 calibration trajectory feeds f32 activations through here."""
    rng = np.random.default_rng(5)
    x = (rng.standard_normal((1, 16, 8, 8)) * 3).astype(np.float32)
    w = rng.standard_normal(16).astype(np.float32)
    b = rng.standard_normal(16).astype(np.float32)
    out = F.group_norm(x, 4, w, b)
    assert out.dtype == np.float32
    np.testing.assert_allclose(
        out, ref_group_norm(x, 4, w, b), rtol=2e-4, atol=2e-4
    )


def test_fused_norms_float32_high_mean_low_variance():
    """Cancellation stress: mean >> std in float32.

    A naive float32 ``E[x^2] - mean^2`` annihilates the variance here
    (output error of order the output itself); the fused reductions
    accumulate moments in float64 specifically so float32 calibration
    cannot produce garbage normalized activations for models with
    offset-heavy statistics.  Reference computed in float64.
    """
    rng = np.random.default_rng(7)
    base = 100.0 + rng.standard_normal((4, 16, 8, 8)) * 0.01
    x32 = base.astype(np.float32)
    want = ref_group_norm(x32.astype(np.float64), 4)
    got = F.group_norm(x32, 4)
    assert got.dtype == np.float32
    # Normalized outputs are unit-scale; a cancellation blow-up would be
    # O(1..100) absolute error (observed 8.6 for the naive f32 fusion).
    np.testing.assert_allclose(got, want, atol=5e-3)
    tokens = (100.0 + rng.standard_normal((4, 384)) * 0.01).astype(np.float32)
    want_ln = ref_layer_norm(tokens.astype(np.float64))
    np.testing.assert_allclose(F.layer_norm(tokens), want_ln, atol=5e-3)


def test_group_norm_rejects_indivisible_groups():
    with pytest.raises(ValueError, match="not divisible"):
        F.group_norm(np.zeros((1, 6, 2, 2)), 4)


@pytest.mark.parametrize("offset", [0.0, 1.2, 100.0])
def test_layer_norm_fused_matches_reference(offset):
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 5, 32)) * 1.7 + offset
    w = rng.standard_normal(32)
    b = rng.standard_normal(32)
    np.testing.assert_allclose(
        F.layer_norm(x, w, b), ref_layer_norm(x, w, b), rtol=1e-9, atol=1e-9
    )
    np.testing.assert_allclose(
        F.layer_norm(x), ref_layer_norm(x), rtol=1e-9, atol=1e-9
    )


def test_fused_variance_never_goes_negative():
    """A constant input has zero variance; cancellation must clip, not NaN."""
    x = np.full((1, 4, 4, 4), 7.3)
    out = F.group_norm(x, 2)
    assert np.all(np.isfinite(out))
    ln = F.layer_norm(np.full((2, 3, 8), -2.5))
    assert np.all(np.isfinite(ln))


# -- GELU without libm pow ---------------------------------------------------

def ref_gelu(x):
    """The ``x ** 3`` (libm ``pow``) formulation the kernel replaced."""
    inner = F._GELU_C * (x + 0.044715 * x ** 3)
    return 0.5 * x * (1.0 + np.tanh(inner))


def plain_gelu(x):
    """The kernel's formula, written plainly: fresh temporaries, no pool."""
    inner = F._GELU_C * (x + 0.044715 * (x * x * x))
    return 0.5 * x * (1.0 + np.tanh(inner))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_gelu_matches_pow_reference(dtype):
    """Absolute, not relative, error: in the far-negative tail GELU is a
    tiny difference of order-one terms, so ulps of the output mean
    nothing there."""
    x = np.linspace(-12.0, 12.0, 200_001).astype(dtype)
    got, want = F.gelu(x), ref_gelu(x)
    assert got.dtype == want.dtype == dtype
    err = np.abs(got.astype(np.float64) - want.astype(np.float64))
    eps = float(np.finfo(dtype).eps)
    assert np.all(err <= 4 * eps * np.maximum(1.0, np.abs(x)))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_gelu_pooled_bit_identical_to_plain_formula(dtype):
    rng = np.random.default_rng(8)
    base = (rng.standard_normal((2, 64, 40)) * 4).astype(dtype)
    for x in (base, base.transpose(0, 2, 1)):  # contiguous and strided
        before = x.copy()
        first = F.gelu(x)
        second = F.gelu(x)
        np.testing.assert_array_equal(x, before)  # input untouched
        assert first.dtype == dtype
        assert first.tobytes() == plain_gelu(x).tobytes()
        # Outputs are fresh arrays: the pooled buffer never escapes.
        assert not np.shares_memory(first, second)
        assert first.tobytes() == second.tobytes()


GELU_BENCHMARKS = ["IMG", "SDM", "DiT", "Latte"]
NO_GELU_BENCHMARKS = ["DDPM", "BED", "CHUR"]


def test_gelu_benchmark_split_matches_models():
    assert sorted(GELU_BENCHMARKS + NO_GELU_BENCHMARKS) == sorted(BENCHMARKS)
    for name in BENCHMARKS:
        model = get_benchmark(name).build_model()
        has_gelu = any(isinstance(m, GELU) for _, m in model.named_modules())
        assert has_gelu == (name in GELU_BENCHMARKS), name


@pytest.mark.parametrize("bench_name", GELU_BENCHMARKS)
def test_gelu_cube_scale_drift_bounded(bench_name):
    """The GELU change moves calibration scales far below the integer grid."""
    spec = get_benchmark(bench_name)
    cube = _calibration_scales(spec, dtype="float32")
    pow_ref = _calibration_scales(spec, dtype="float32", ref_gelu_cube=True)
    assert _max_rel_drift(cube, pow_ref) < F32_SCALE_BOUND


@pytest.mark.parametrize("bench_name", NO_GELU_BENCHMARKS)
def test_gelu_cube_leaves_gelu_free_benchmarks_bit_identical(bench_name):
    spec = get_benchmark(bench_name)
    cube = _calibration_scales(spec, dtype="float32")
    pow_ref = _calibration_scales(spec, dtype="float32", ref_gelu_cube=True)
    assert cube == pow_ref
    samples = []
    for gelu in (F.gelu, ref_gelu):
        saved, F.gelu = F.gelu, gelu
        try:
            engine = DittoEngine.from_benchmark(spec, num_steps=3)
            samples.append(engine.run(batch_size=1, seed=0).samples)
        finally:
            F.gelu = saved
    assert samples[0].tobytes() == samples[1].tobytes()


# -- calibration-scale invariance (all seven benchmarks) ---------------------

def _calibration_scales(
    spec, dtype="float64", ref_norms=False, steps=3, ref_gelu_cube=False
):
    """Per-layer scales from one short calibration trajectory.

    Mirrors ``DittoEngine.from_model``'s calibration setup (same seed, same
    pipeline shape) without quantizing, so two arms differing only in the
    norm / GELU kernels or the trajectory dtype are directly comparable.
    """
    saved = (F.group_norm, F.layer_norm, F.gelu)
    if ref_norms:
        F.group_norm, F.layer_norm = ref_group_norm, ref_layer_norm
    if ref_gelu_cube:
        F.gelu = ref_gelu
    try:
        model = spec.build_model()
        pipeline = GenerationPipeline(
            model,
            make_sampler(spec.sampler, DiffusionSchedule(1000), steps),
            spec.sample_shape,
            spec.build_conditioning(),
        )
        rng = np.random.default_rng(11)
        with calibration_precision(model, pipeline, dtype):
            return calibrate_model(model, lambda: pipeline.generate(1, rng))
    finally:
        F.group_norm, F.layer_norm, F.gelu = saved


def _max_rel_drift(a, b):
    assert set(a) == set(b) and a
    return max(abs(a[k] - b[k]) / b[k] for k in b)


@pytest.mark.parametrize("bench_name", BENCHMARKS)
def test_fused_norm_scales_invariant(bench_name):
    """Quantization scales are unaffected by the fused-norm summation order."""
    spec = get_benchmark(bench_name)
    fused = _calibration_scales(spec)
    reference = _calibration_scales(spec, ref_norms=True)
    assert _max_rel_drift(fused, reference) < NORM_SCALE_BOUND


@pytest.mark.parametrize("bench_name", BENCHMARKS)
def test_f32_calibration_scale_drift_bounded(bench_name):
    """float32 trajectories move every scale far below the integer grid."""
    spec = get_benchmark(bench_name)
    f64 = _calibration_scales(spec, dtype="float64")
    f32 = _calibration_scales(spec, dtype="float32")
    assert _max_rel_drift(f32, f64) < F32_SCALE_BOUND


@pytest.mark.parametrize("bench_name", ["DDPM", "DiT"])
def test_f32_calibration_end_metrics_bounded(bench_name):
    """End samples of f32- vs f64-calibrated engines agree to ~rounding."""
    spec = get_benchmark(bench_name)
    steps = 6 if bench_name == "DDPM" else 4
    s64 = DittoEngine.from_benchmark(
        spec, num_steps=steps, calibration_dtype="float64"
    ).run(batch_size=1, seed=0).samples
    s32 = DittoEngine.from_benchmark(
        spec, num_steps=steps, calibration_dtype="float32"
    ).run(batch_size=1, seed=0).samples
    rel_l1 = np.abs(s32 - s64).sum() / np.abs(s64).sum()
    assert rel_l1 < END_METRIC_BOUND


# -- the fast path actually runs in float32 and restores everything ----------

def test_calibration_precision_casts_and_restores():
    spec = get_benchmark("DDPM")
    model = spec.build_model()
    pipeline = GenerationPipeline(
        model,
        make_sampler(spec.sampler, DiffusionSchedule(1000), 2),
        spec.sample_shape,
        spec.build_conditioning(),
    )
    seen = set()
    for _, module in model.named_modules():
        if isinstance(module, Conv2d):
            module.register_forward_hook(
                lambda _m, inputs, output: seen.add(
                    (inputs[0].dtype, output.dtype)
                )
            )
    with calibration_precision(model, pipeline, "float32"):
        assert all(
            p.data.dtype == np.float32 for _, p in model.named_parameters()
        )
        pipeline.generate(1, np.random.default_rng(0))
    # Every conv in the trajectory saw float32 in AND out - no silent
    # float64 re-promotion anywhere in the forward (embeddings included).
    assert seen == {(np.dtype(np.float32), np.dtype(np.float32))}
    # ...and the context restored the float64 world exactly.
    assert all(p.data.dtype == np.float64 for _, p in model.named_parameters())
    assert F.embedding_dtype() is None
    assert "predict_noise_rows" not in pipeline.__dict__
    assert pipeline._cond_cache == {}


def test_calibration_precision_restores_after_setup_failure():
    """A cast failing mid-setup must roll back everything already swapped -
    a user-owned model can never come back half-cast to float32."""

    class ExplodingArray(np.ndarray):
        def astype(self, *args, **kwargs):
            raise MemoryError("boom")

    spec = get_benchmark("DDPM")
    model = spec.build_model()
    # Conditioning casts run AFTER the parameter swap, so this detonates
    # with every float64 parameter already converted.
    exploding = np.zeros((1, 4), dtype=np.float64).view(ExplodingArray)
    pipeline = GenerationPipeline(
        model,
        make_sampler(spec.sampler, DiffusionSchedule(1000), 2),
        spec.sample_shape,
        {"context": exploding},
    )
    with pytest.raises(MemoryError):
        with calibration_precision(model, pipeline, "float32"):
            pass  # pragma: no cover - setup raises before the yield
    assert all(p.data.dtype == np.float64 for _, p in model.named_parameters())
    assert F.embedding_dtype() is None
    assert "predict_noise_rows" not in pipeline.__dict__


def test_calibration_precision_float64_is_noop():
    spec = get_benchmark("DDPM")
    model = spec.build_model()
    pipeline = GenerationPipeline(
        model,
        make_sampler(spec.sampler, DiffusionSchedule(1000), 2),
        spec.sample_shape,
        spec.build_conditioning(),
    )
    with calibration_precision(model, pipeline, "float64"):
        assert all(
            p.data.dtype == np.float64 for _, p in model.named_parameters()
        )


def test_calibration_precision_rejects_other_dtypes():
    spec = get_benchmark("DDPM")
    model = spec.build_model()
    pipeline = GenerationPipeline(
        model,
        make_sampler(spec.sampler, DiffusionSchedule(1000), 2),
        spec.sample_shape,
        spec.build_conditioning(),
    )
    with pytest.raises(ValueError, match="float32 or float64"):
        with calibration_precision(model, pipeline, "float16"):
            pass  # pragma: no cover


# -- cache-key separation ----------------------------------------------------

def test_engine_key_distinguishes_calibration_dtype():
    spec = get_benchmark("DDPM")
    default = engine_key(spec)
    explicit_f32 = engine_key(spec, calibration_dtype="float32")
    f64 = engine_key(spec, calibration_dtype="float64")
    # The default IS float32: equivalent invocations share one entry...
    assert default == explicit_f32
    # ...while legacy-precision engines can never collide with them.
    assert f64 != default


def test_engine_key_respects_spec_dtype_pin():
    """A spec pinned to float64 must not share keys with a float32 override
    (engine_key resolves exactly like from_benchmark)."""
    import dataclasses

    spec = get_benchmark("DDPM")
    pinned = dataclasses.replace(spec, calibration_dtype="float64")
    assert engine_key(pinned) == engine_key(pinned, calibration_dtype="float64")
    assert engine_key(pinned) != engine_key(pinned, calibration_dtype="float32")
    # An explicit float32 pin is the engine default: behaviorally identical
    # specs share one cache entry (signature normalizes the dtype).
    pinned_f32 = dataclasses.replace(spec, calibration_dtype="float32")
    assert engine_key(pinned_f32) == engine_key(spec)
