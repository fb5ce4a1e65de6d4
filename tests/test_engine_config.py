"""EngineConfig: the one value every engine build and cache key derives from."""

import dataclasses

import pytest

from repro.core import DittoEngine, EngineConfig
from repro.runtime import engine_build_key, engine_key, plan_key
from repro.workloads import BenchmarkSpec, get_benchmark

from helpers import _build_tiny_unet_b, make_tiny_spec


def test_resolve_takes_unset_axes_from_the_spec():
    spec = get_benchmark("SDM")
    config = EngineConfig.resolve(spec)
    assert config.num_steps == spec.num_steps
    assert config.sampler == spec.sampler
    assert config.guidance_scale == spec.guidance_scale
    assert config.calibration_dtype == spec.calibration_dtype == "float32"
    assert EngineConfig.resolve(spec, num_steps=None, sampler=None) == config
    assert EngineConfig.resolve(spec, **config.axes()) == config
    overridden = EngineConfig.resolve(spec, num_steps=3, step_clusters=2)
    assert (overridden.num_steps, overridden.step_clusters) == (3, 2)


def test_resolve_rejects_unknown_axes():
    with pytest.raises(TypeError, match="unknown engine config axes: seed"):
        EngineConfig.resolve(make_tiny_spec(), seed=3)


def test_from_benchmark_records_the_resolved_config():
    spec = make_tiny_spec(num_steps=3)
    engine = DittoEngine.from_benchmark(spec, calibrate=False, sampler="ddpm")
    assert engine.config == EngineConfig.resolve(
        spec, calibrate=False, sampler="ddpm"
    )
    assert len(engine.pipeline.sampler.timesteps) == engine.config.num_steps


def test_equivalent_axes_share_every_key():
    spec = make_tiny_spec(num_steps=3)
    explicit = EngineConfig.resolve(spec).axes()
    for key in (engine_key, engine_build_key, plan_key):
        assert key(spec) == key(spec, **explicit)
        assert key(spec) != key(spec, calibrate=False)


def _other(value):
    """A different value of the same kind, for the signature mutation test."""
    if callable(value):
        return _build_tiny_unet_b
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "-other"
    if isinstance(value, tuple):
        return value + (1,)
    return 2.0  # an unset optional (guidance scale, uncond builder)


def test_every_spec_field_but_description_reaches_the_signature():
    """The signature iterates the dataclass fields, so a field added to
    BenchmarkSpec reaches every cache key with no other edit."""
    spec = make_tiny_spec()
    base = spec.signature()
    for field in dataclasses.fields(BenchmarkSpec):
        mutated = dataclasses.replace(
            spec, **{field.name: _other(getattr(spec, field.name))}
        )
        if field.name == "description":
            assert mutated.signature() == base
        else:
            assert mutated.signature() != base, field.name
