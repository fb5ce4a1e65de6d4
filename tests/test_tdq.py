"""Unit tests for timestep-clustered quantization (Q-Diffusion/TDQ synergy)."""

import numpy as np
import pytest

from repro.core import DittoEngine, EngineConfig
from repro.core.modes import ExecutionMode
from repro.quant import (
    TimestepClusteredQuantizer,
    cluster_bounds,
    set_active_step,
)
from repro.quant.calibration import calibrate_model_clustered
from repro.nn import Linear
from repro.quant.qlayers import QLinear

from helpers import make_tiny_engine


@pytest.fixture(autouse=True)
def clear_active_step():
    yield
    set_active_step(None)


def test_cluster_bounds_partition():
    # Ceil-style edges: larger windows first, as the docstring promises.
    assert cluster_bounds(10, 3) == [0, 4, 7]  # windows of 4, 3, 3 steps
    assert cluster_bounds(10, 1) == [0]
    assert cluster_bounds(4, 8) == [0, 1, 2, 3]  # capped at num_steps
    with pytest.raises(ValueError):
        cluster_bounds(10, 0)


def test_cluster_bounds_boundaries():
    assert cluster_bounds(9, 3) == [0, 3, 6]  # exact division: even windows
    assert cluster_bounds(7, 2) == [0, 4]  # odd split: first window larger
    assert cluster_bounds(1, 1) == [0]
    assert cluster_bounds(1, 5) == [0]  # num_clusters > num_steps collapses
    assert cluster_bounds(5, 5) == [0, 1, 2, 3, 4]  # one step per cluster
    assert cluster_bounds(0, 3) == []  # empty trajectory: no windows
    # Starts are strictly increasing and inside range: no empty window ever.
    for steps in range(1, 30):
        for clusters in range(1, 12):
            bounds = cluster_bounds(steps, clusters)
            assert bounds[0] == 0
            assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))
            assert bounds[-1] < steps
            assert len(bounds) == min(clusters, steps)


def test_cluster_of_mapping():
    quant = TimestepClusteredQuantizer(8, num_clusters=3)
    quant.configure(9)
    assert [quant.cluster_of(i) for i in range(9)] == [0, 0, 0, 1, 1, 1, 2, 2, 2]


def test_per_cluster_scales():
    quant = TimestepClusteredQuantizer(8, num_clusters=2)
    quant.configure(4)
    quant.observe_step(np.array([1.0]), 0)  # cluster 0 peak 1.0
    quant.observe_step(np.array([10.0]), 3)  # cluster 1 peak 10.0
    scales = quant.freeze_clusters()
    assert scales[0] == pytest.approx(1.0 / 127.0)
    assert scales[1] == pytest.approx(10.0 / 127.0)


def test_scale_follows_active_step():
    quant = TimestepClusteredQuantizer(8, num_clusters=2)
    quant.configure(4)
    quant.observe_step(np.array([1.0]), 0)
    quant.observe_step(np.array([10.0]), 3)
    quant.freeze_clusters()
    set_active_step(0)
    q_small = quant.quantize(np.array([1.0]))
    assert q_small[0] == 127.0
    set_active_step(3)
    q_large = quant.quantize(np.array([1.0]))
    assert q_large[0] == pytest.approx(13.0)  # 1.0 / (10/127) rounded


def test_empty_cluster_falls_back_to_widest():
    quant = TimestepClusteredQuantizer(8, num_clusters=3)
    quant.configure(6)
    quant.observe_step(np.array([5.0]), 0)
    scales = quant.freeze_clusters()
    assert scales[1] == scales[0] == scales[2]


def test_qlinear_dense_fallback_at_cluster_boundary(rng):
    """Crossing a scale boundary must invalidate the temporal state -
    yet the outputs stay exact (dense re-run, not an approximation)."""
    fp = Linear(8, 4, rng=rng)
    q = QLinear.from_float(fp)
    quant = TimestepClusteredQuantizer(8, num_clusters=2)
    quant.configure(4)
    x0 = rng.normal(size=(1, 8))
    quant.observe_step(x0, 0)
    quant.observe_step(3.0 * x0, 3)
    quant.freeze_clusters()
    q.input_quant = quant
    q.mode = ExecutionMode.TEMPORAL

    q_ref = QLinear.from_float(fp)
    q_ref.input_quant = TimestepClusteredQuantizer(8, num_clusters=2)
    q_ref.input_quant.configure(4)
    q_ref.input_quant.observe_step(x0, 0)
    q_ref.input_quant.observe_step(3.0 * x0, 3)
    q_ref.input_quant.freeze_clusters()

    history = [x0, x0 + 0.01, x0 + 0.02, x0 + 0.03]
    for step, xt in enumerate(history):
        set_active_step(step)
        out_temporal = q(xt)
        out_dense = q_ref(xt)
        np.testing.assert_array_equal(out_temporal, out_dense)


def test_clustered_calibration_collects_per_cluster(rng):
    from repro.nn import Conv2d, Module

    class Net(Module):
        def __init__(self):
            super().__init__()
            self.conv = Conv2d(2, 2, 3, padding=1, rng=np.random.default_rng(0))

        def forward(self, x):
            return self.conv(x)

    net = Net()

    def run():
        for step in range(4):
            set_active_step(step)
            net((step + 1.0) * np.ones((1, 2, 4, 4)))

    quantizers = calibrate_model_clustered(net, run, num_steps=4, num_clusters=2)
    quant = quantizers["conv"]
    # Cluster 0 saw peaks 1, 2; cluster 1 saw 3, 4.
    assert quant.scale_for_step(0) == pytest.approx(2.0 / 127.0)
    assert quant.scale_for_step(3) == pytest.approx(4.0 / 127.0)


def test_engine_with_step_clusters_runs_and_falls_back():
    engine = make_tiny_engine(num_steps=6)
    baseline = engine.run(seed=2)

    from repro.models import UNet

    model = UNet(
        in_channels=2,
        base_channels=8,
        channel_mults=(1, 2),
        num_res_blocks=1,
        attention_levels=(1,),
        block_type="attention",
        rng=np.random.default_rng(5),
    )
    clustered_engine = DittoEngine.from_model(
        model,
        EngineConfig(num_steps=6, step_clusters=3, sampler="ddim"),
        sample_shape=(2, 8, 8),
        num_train_steps=100,
        benchmark="tiny-tdq",
    )
    assert clustered_engine.config.step_clusters == 3
    clustered = clustered_engine.run(seed=2)
    # Boundary steps re-run dense: more records without temporal stats.
    def dense_fallbacks(result):
        return sum(1 for s in result.rich_trace if s.stats_temporal is None)

    assert dense_fallbacks(clustered) > dense_fallbacks(baseline)
    # Outputs stay finite and in the same regime.
    assert np.isfinite(clustered.samples).all()
