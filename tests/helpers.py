"""Shared test helpers, importable from any test module.

Kept outside ``conftest.py`` so test modules can import them with a plain
absolute import (``from helpers import make_rich``) instead of the relative
imports that broke collection when the test directory is not a package.
"""

import numpy as np

from repro.core import DittoEngine, EngineConfig, RichLayerStep
from repro.core.bitwidth import BitWidthStats
from repro.quant import QAttention, iter_qlayers
from repro.workloads.suite import BenchmarkSpec

__all__ = [
    "assert_temporal_state_held",
    "make_rich",
    "make_tiny_engine",
    "make_tiny_spec",
    "TINY_SUITE",
]


def assert_temporal_state_held(qmodel):
    """Every layer kept state, so every call after the first differenced.

    Self-attention's Q/K/V run as one projection whose state the attention
    layer owns: it must hold that state, and ``to_q`` / ``to_k`` / ``to_v``
    must hold none of their own.
    """
    shared = set()
    for name, q in iter_qlayers(qmodel):
        if isinstance(q, QAttention):
            assert q._prev, name
            if not q.is_cross:
                assert q._prev_q_in is not None, name
                assert q._prev_out_int is not None, name
                shared.update(id(c) for c in (q.to_q, q.to_k, q.to_v))
        elif id(q) in shared:
            assert q._prev_q_in is None and q._prev_out_int is None, name
        else:
            assert q._prev_q_in is not None, name


def make_rich(
    step_index=0,
    name="layer",
    temporal=True,
    chained=False,
    producer="other",
    sub_ops=1,
):
    """A canned RichLayerStep with known bit-width compositions."""
    stats = BitWidthStats(total=100, zero=40, low=50, high=10)
    return RichLayerStep(
        step_index=step_index,
        layer_name=name,
        kind="conv",
        macs=10_000,
        in_elems=100,
        out_elems=200,
        weight_elems=50,
        data_elems=100,
        stats_dense=BitWidthStats(total=100, zero=5, low=35, high=60),
        stats_spatial=BitWidthStats(total=100, zero=10, low=40, high=50),
        stats_temporal=stats if temporal else None,
        sub_ops_temporal=sub_ops,
        vpu_elems=200,
        chained_input=chained,
        producer_kind=producer,
    )


def _tiny_unet(seed: int = 5, block_type: str = "attention"):
    """The miniature UNet shared by every tiny engine/spec in the suite."""
    from repro.models import UNet

    return UNet(
        in_channels=2,
        base_channels=8,
        channel_mults=(1, 2),
        num_res_blocks=1,
        attention_levels=(1,),
        block_type=block_type,
        rng=np.random.default_rng(seed),
    )


def make_tiny_engine(
    sampler: str = "ddim",
    num_steps: int = 4,
    block_type: str = "attention",
    calibrate: bool = False,
    seed: int = 5,
):
    """A fast DittoEngine over a miniature UNet (for integration tests)."""
    return DittoEngine.from_model(
        _tiny_unet(seed, block_type),
        EngineConfig(num_steps=num_steps, calibrate=calibrate, sampler=sampler),
        sample_shape=(2, 8, 8),
        num_train_steps=100,
        benchmark="tiny",
    )


# -- tiny benchmark specs for runtime tests --------------------------------
# Build functions are module-level so BenchmarkSpec objects pickle by
# reference into EngineRunner's worker processes.

def _build_tiny_unet_a():
    return _tiny_unet(seed=5)


def _build_tiny_unet_b():
    return _tiny_unet(seed=7)


def _no_conditioning():
    return None


def make_tiny_spec(name="tinyA", num_steps=3, builder=_build_tiny_unet_a):
    return BenchmarkSpec(
        name=name,
        description="miniature UNet for runtime tests",
        dataset="synthetic",
        sampler="ddim",
        num_steps=num_steps,
        paper_steps=num_steps,
        sample_shape=(2, 8, 8),
        build_model=builder,
        build_conditioning=_no_conditioning,
    )


TINY_SUITE = (
    make_tiny_spec("tinyA", num_steps=3, builder=_build_tiny_unet_a),
    make_tiny_spec("tinyB", num_steps=4, builder=_build_tiny_unet_b),
)
