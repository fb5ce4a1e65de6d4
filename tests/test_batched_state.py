"""Per-batch-element temporal-state invariance (the serving contract).

A batch-N engine run must be bit-exact with N independent batch-1 runs
seeded per element: every quantized layer's cached temporal state
(``_prev_q_in`` / ``_prev_out_int`` / ``_prev_scale``, attention's ``_prev``
dicts) differences along the batch axis, and every sticky
quantizer scale freezes batch-independently (the engine's probe tiles one
sample).  These tests pin that contract for a conv-only benchmark, a
CFG/attention benchmark, and a TDQ cluster-boundary crossing at batch > 1.

The contract extends along two axes pinned below:

* **stochastic samplers** - per-element ``SeedSequence.spawn`` noise
  streams (``engine.run(rngs=...)``) make ddpm / ddim-eta>0 batch runs
  bit-exact with their per-stream batch-1 references;
* **continuous batching** - an :class:`~repro.core.session.EngineSession`
  admits/evicts rows at step boundaries, each row at its own timestep (and
  its own TDQ cluster scale); any interleaving is bit-exact with N seeded
  batch-1 runs.
"""

import numpy as np
import pytest

from repro.core import DittoEngine
from repro.models import UNet, build_text_encoder
from repro.quant.qlayers import QAttention, iter_qlayers


def _stream(i, root=77):
    """The i-th spawned child stream of SeedSequence(root), fresh each call."""
    return np.random.default_rng(np.random.SeedSequence(root, spawn_key=(i,)))


def _unet(block_type, context_dim=None, seed=3, attention_levels=(1,)):
    return UNet(
        in_channels=2,
        base_channels=8,
        channel_mults=(1, 2),
        num_res_blocks=1,
        attention_levels=attention_levels,
        block_type=block_type,
        context_dim=context_dim,
        rng=np.random.default_rng(seed),
    )


def _conv_engine(calibrate=False, step_clusters=1, num_steps=4):
    """Pure-conv UNet: no attention blocks at all."""
    return DittoEngine.from_model(
        _unet("none", attention_levels=()),
        sampler_name="ddim",
        num_steps=num_steps,
        sample_shape=(2, 8, 8),
        num_train_steps=100,
        calibrate=calibrate,
        step_clusters=step_clusters,
        benchmark="tiny-conv",
    )


def _cfg_engine(calibrate=True, num_steps=4):
    """Cross-attention UNet under classifier-free guidance (stacked batch)."""
    encoder = build_text_encoder()
    return DittoEngine.from_model(
        _unet("transformer", context_dim=16, seed=7),
        sampler_name="ddim",
        num_steps=num_steps,
        sample_shape=(2, 8, 8),
        num_train_steps=100,
        calibrate=calibrate,
        benchmark="tiny-cfg",
        guidance_scale=3.5,
        conditioning={"context": encoder.encode(["a blue car"])},
        uncond_conditioning={"context": encoder.encode([""])},
    )


def _batch_vs_singles(engine, batch, seed=3):
    """Samples of one batch-N run and of N per-element batch-1 runs."""
    batched = engine.run(batch_size=batch, seed=seed).samples
    shape = (batch,) + engine.pipeline.sample_shape
    x0 = np.random.default_rng(seed).standard_normal(shape)
    singles = np.concatenate(
        [engine.run(x_init=x0[i : i + 1]).samples for i in range(batch)],
        axis=0,
    )
    return batched, singles


def test_conv_batch_invariance_uncalibrated():
    """Conv benchmark, probe-frozen (dynamic) scales: batch-3 == 3 x batch-1."""
    engine = _conv_engine(calibrate=False)
    batched, singles = _batch_vs_singles(engine, batch=3)
    np.testing.assert_array_equal(batched, singles)
    assert not np.allclose(batched[0], batched[1])  # elements independent


def test_conv_batch_invariance_calibrated():
    engine = _conv_engine(calibrate=True)
    batched, singles = _batch_vs_singles(engine, batch=2, seed=11)
    np.testing.assert_array_equal(batched, singles)


def test_cfg_attention_batch_invariance():
    """CFG stacks [cond; uncond]: per-element state still differences itself."""
    engine = _cfg_engine()
    batched, singles = _batch_vs_singles(engine, batch=2, seed=5)
    np.testing.assert_array_equal(batched, singles)
    assert not np.allclose(batched[0], batched[1])


def test_plms_batch_invariance():
    """PLMS's warmup double-call keeps the same stacked layout every step."""
    engine = DittoEngine.from_model(
        _unet("attention", seed=9),
        sampler_name="plms",
        num_steps=3,
        sample_shape=(2, 8, 8),
        num_train_steps=100,
        calibrate=False,
        benchmark="tiny-plms",
    )
    batched, singles = _batch_vs_singles(engine, batch=2, seed=8)
    np.testing.assert_array_equal(batched, singles)


def test_tdq_cluster_boundary_batched():
    """Crossing a TDQ scale boundary at batch>1: dense fallback fires for the
    whole stacked batch (the cached grid is invalid for *every* element) and
    the run stays bit-exact with per-element batch-1 runs."""
    engine = _conv_engine(calibrate=True, step_clusters=3, num_steps=6)
    batched_result = engine.run(batch_size=2, seed=4)

    # Dense fallbacks (records without temporal stats) must appear exactly at
    # the trajectory start and at each cluster-boundary step - for a batch-2
    # run just like for batch-1.
    from repro.quant.tdq import cluster_bounds

    bounds = set(cluster_bounds(6, 3))
    fallback_steps = sorted(
        {s.step_index for s in batched_result.rich_trace if s.stats_temporal is None}
    )
    assert set(fallback_steps) == bounds
    assert len(bounds) > 1  # the trajectory actually crossed a boundary

    x0 = np.random.default_rng(4).standard_normal((2,) + engine.pipeline.sample_shape)
    singles = np.concatenate(
        [engine.run(x_init=x0[i : i + 1]).samples for i in range(2)], axis=0
    )
    np.testing.assert_array_equal(batched_result.samples, singles)


def test_probe_scales_batch_independent():
    """Sticky quantizer scales frozen by the probe must not depend on the
    batch size the engine runs at."""
    scales = {}
    for batch in (1, 4):
        engine = _cfg_engine(calibrate=False)
        engine.run(batch_size=batch, seed=0)
        for name, qlayer in iter_qlayers(engine.qmodel):
            if isinstance(qlayer, QAttention):
                scales.setdefault(batch, {})[name] = (
                    qlayer.q_quant.scale,
                    qlayer.k_quant.scale,
                    qlayer.v_quant.scale,
                )
    assert scales[1] == scales[4]
    assert scales[1]  # the model does contain attention layers


def test_run_x_init_validation():
    engine = _conv_engine(calibrate=True)
    shape = engine.pipeline.sample_shape
    with pytest.raises(ValueError, match="batch, \\*sample_shape"):
        engine.run(x_init=np.zeros(shape))  # missing batch dimension
    with pytest.raises(ValueError, match="batch_size=3 conflicts"):
        engine.run(batch_size=3, x_init=np.zeros((2,) + shape))


def test_run_x_init_matches_seeded_run():
    """run(x_init=noise) reproduces run(seed=s) when noise is seed-s noise."""
    engine = _conv_engine(calibrate=True)
    seeded = engine.run(batch_size=2, seed=21).samples
    x0 = np.random.default_rng(21).standard_normal((2,) + engine.pipeline.sample_shape)
    explicit = engine.run(x_init=x0).samples
    np.testing.assert_array_equal(seeded, explicit)


def _batch_vs_singles_streams(engine, batch, seed=3):
    """Batch-N with per-element rng streams vs N per-stream batch-1 runs."""
    shape = (batch,) + engine.pipeline.sample_shape
    x0 = np.random.default_rng(seed).standard_normal(shape)
    batched = engine.run(
        x_init=x0, record_trace=False, rngs=[_stream(i) for i in range(batch)]
    ).samples
    singles = np.concatenate(
        [
            engine.run(
                x_init=x0[i : i + 1], record_trace=False, rngs=[_stream(i)]
            ).samples
            for i in range(batch)
        ],
        axis=0,
    )
    return batched, singles


def _ddpm_engine(num_steps=5):
    return DittoEngine.from_model(
        _unet("none", attention_levels=()),
        sampler_name="ddpm",
        num_steps=num_steps,
        sample_shape=(2, 8, 8),
        num_train_steps=100,
        calibrate=False,
        benchmark="tiny-ddpm",
    )


def test_ddpm_stochastic_batch_invariance():
    """DDPM ancestral sampling at batch 3: per-element noise streams make the
    batched run bit-exact with each request's batch-1 replay."""
    engine = _ddpm_engine()
    batched, singles = _batch_vs_singles_streams(engine, batch=3)
    np.testing.assert_array_equal(batched, singles)
    assert not np.allclose(batched[0], batched[1])  # streams independent


def test_ddim_eta_stochastic_batch_invariance():
    """Stochastic DDIM (eta > 0) at batch 2 and 4 under per-element streams."""
    engine = DittoEngine.from_model(
        _unet("none", attention_levels=()),
        sampler_name="ddim",
        num_steps=4,
        sample_shape=(2, 8, 8),
        num_train_steps=100,
        calibrate=False,
        benchmark="tiny-eta",
        sampler_eta=0.7,
    )
    assert engine.pipeline.sampler.eta == 0.7
    for batch in (2, 4):
        batched, singles = _batch_vs_singles_streams(engine, batch, seed=batch)
        np.testing.assert_array_equal(batched, singles)


def test_stochastic_shared_stream_would_differ():
    """Sanity of the fixture: without per-element streams the old shared-rng
    batch draw does NOT reproduce the per-stream singles - the gap the
    SeedSequence.spawn streams close."""
    engine = _ddpm_engine()
    x0 = np.random.default_rng(3).standard_normal(
        (2,) + engine.pipeline.sample_shape
    )
    shared = engine.run(x_init=x0, record_trace=False, seed=0).samples
    singles = np.concatenate(
        [
            engine.run(
                x_init=x0[i : i + 1], record_trace=False, rngs=[_stream(i)]
            ).samples
            for i in range(2)
        ],
        axis=0,
    )
    assert not np.array_equal(shared, singles)


def test_run_rngs_validation():
    engine = _ddpm_engine(num_steps=3)
    with pytest.raises(ValueError, match="one stream per element"):
        engine.run(batch_size=2, rngs=[_stream(0)])


# -- continuous batching (EngineSession) ------------------------------------

def test_continuous_session_tdq_boundary_crossing():
    """Admissions/evictions across a TDQ cluster boundary: rows sit in
    *different* clusters within one batch (per-row scales), each crosses the
    boundary at its own step, and every completed row is bit-exact with its
    seeded batch-1 reference."""
    engine = _conv_engine(calibrate=True, step_clusters=3, num_steps=6)
    noises = [
        np.random.default_rng(40 + i).standard_normal(
            (1,) + engine.pipeline.sample_shape
        )
        for i in range(4)
    ]
    out = {}
    with engine.open_session(capacity=3) as session:
        session.admit(noises[0], tag=0)
        for _ in range(3):  # row 0 crosses the first boundary alone
            for tag, sample in session.step():
                out[tag] = sample
        session.admit(noises[1], tag=1)
        session.admit(noises[2], tag=2)
        for _ in range(3):  # row 0 finishes and frees its slot
            for tag, sample in session.step():
                out[tag] = sample
        assert sorted(out) == [0]
        session.admit(noises[3], tag=3)  # backfills row 0's slot mid-flight
        for tag, sample in session.run_to_completion().items():
            out[tag] = sample
    assert sorted(out) == [0, 1, 2, 3]
    for i in range(4):
        reference = engine.run(x_init=noises[i], record_trace=False).samples
        np.testing.assert_array_equal(out[i], reference)


def test_continuous_session_stochastic_and_eviction():
    """DDPM rows admitted mid-flight with private streams; one row evicted
    (cancelled) mid-trajectory must not perturb the survivors."""
    engine = _ddpm_engine()
    noises = [
        np.random.default_rng(60 + i).standard_normal(
            (1,) + engine.pipeline.sample_shape
        )
        for i in range(4)
    ]
    out = {}
    with engine.open_session() as session:
        session.admit(noises[0], rng=_stream(0), tag=0)
        session.admit(noises[3], rng=_stream(3), tag=3)
        for tag, sample in session.step():
            out[tag] = sample
        session.admit(noises[1], rng=_stream(1), tag=1)
        session.evict(3)  # cancel mid-flight
        for tag, sample in session.step():
            out[tag] = sample
        session.admit(noises[2], rng=_stream(2), tag=2)
        out.update(session.run_to_completion())
    assert sorted(out) == [0, 1, 2]
    for i in range(3):
        reference = engine.run(
            x_init=noises[i], record_trace=False, rngs=[_stream(i)]
        ).samples
        np.testing.assert_array_equal(out[i], reference)


def test_continuous_session_cfg_attention():
    """CFG cross-attention under composition changes: the stacked
    [cond; uncond] state remaps per block and K'/V' caching stays sound."""
    engine = _cfg_engine()
    noises = [
        np.random.default_rng(80 + i).standard_normal(
            (1,) + engine.pipeline.sample_shape
        )
        for i in range(3)
    ]
    out = {}
    with engine.open_session(capacity=2) as session:
        session.admit(noises[0], tag=0)
        for tag, sample in session.step():
            out[tag] = sample
        session.admit(noises[1], tag=1)
        for tag, sample in session.step():
            out[tag] = sample
        out.update(session.run_to_completion())
        session.admit(noises[2], tag=2)
        out.update(session.run_to_completion())
    assert sorted(out) == [0, 1, 2]
    for i in range(3):
        reference = engine.run(x_init=noises[i], record_trace=False).samples
        np.testing.assert_array_equal(out[i], reference)


def test_session_rejects_multistep_samplers():
    engine = DittoEngine.from_model(
        _unet("none", attention_levels=()),
        sampler_name="plms",
        num_steps=3,
        sample_shape=(2, 8, 8),
        num_train_steps=100,
        calibrate=False,
        benchmark="tiny-plms-session",
    )
    with pytest.raises(ValueError, match="row-steppable"):
        engine.open_session()


def test_session_admit_requires_stream_for_stochastic_sampler():
    """Stochastic samplers validate the stream at admission - a missing
    stream failing mid-step would desynchronize other rows' draws."""
    engine = _ddpm_engine()
    shape = (1,) + engine.pipeline.sample_shape
    with engine.open_session() as session:
        with pytest.raises(ValueError, match="rng stream"):
            session.admit(np.zeros(shape))
        session.admit(np.zeros(shape), rng=_stream(0))  # with stream: fine


def test_session_step_retry_after_failure_keeps_rows_exact():
    """A step that fails mid-flight (here: a transient forward error right
    after a composition change) must be recoverable: the retried step may
    not re-apply the already-applied remap and hand surviving rows another
    row's temporal state (the mapping is committed with the state, not
    after the forward)."""
    engine = _ddpm_engine()
    noises = [
        np.random.default_rng(90 + i).standard_normal(
            (1,) + engine.pipeline.sample_shape
        )
        for i in range(3)
    ]
    out = {}
    with engine.open_session() as session:
        session.admit(noises[0], rng=_stream(0), tag=0)
        session.admit(noises[1], rng=_stream(1), tag=1)
        for tag, sample in session.step():
            out[tag] = sample
        session.evict(1)  # composition change pending for the next step
        session.admit(noises[2], rng=_stream(2), tag=2)
        real_predict = engine.pipeline.predict_noise_rows

        def flaky_predict(x, t_rows):
            engine.pipeline.predict_noise_rows = real_predict
            raise RuntimeError("transient")

        engine.pipeline.predict_noise_rows = flaky_predict
        with pytest.raises(RuntimeError, match="transient"):
            session.step()  # remap already applied when the forward died
        out.update(session.run_to_completion())  # retry
    for i in (0, 2):
        reference = engine.run(
            x_init=noises[i], record_trace=False, rngs=[_stream(i)]
        ).samples
        np.testing.assert_array_equal(out[i], reference)


def test_step_failure_after_partial_draws_keeps_streams_exact():
    """A step that raises after SOME rows already drew posterior noise must
    rewind every row's stream before propagating: the sampler advances rows
    one at a time, so a third-row failure leaves rows 0-1 one draw ahead of
    their batch-1 references - a retry without the rewind would silently
    desynchronize the survivors."""
    engine = _ddpm_engine()
    noises = [
        np.random.default_rng(110 + i).standard_normal(
            (1,) + engine.pipeline.sample_shape
        )
        for i in range(3)
    ]
    out = {}
    with engine.open_session() as session:
        for i in range(3):
            session.admit(noises[i], rng=_stream(i), tag=i)
        sampler = engine.pipeline.sampler
        real_step = sampler.step
        calls = {"n": 0}

        def flaky_step(eps, index, x, rng=None):
            calls["n"] += 1
            if calls["n"] == 3:
                sampler.step = real_step
                raise RuntimeError("died after rows 0-1 drew")
            return real_step(eps, index, x, rng=rng)

        sampler.step = flaky_step
        with pytest.raises(RuntimeError, match="died after"):
            session.step()
        assert calls["n"] == 3  # rows 0 and 1 really drew before the failure
        assert session.healthy  # transient failure, not a kill
        out.update(session.run_to_completion())  # retry replays exactly
    assert sorted(out) == [0, 1, 2]
    for i in range(3):
        reference = engine.run(
            x_init=noises[i], record_trace=False, rngs=[_stream(i)]
        ).samples
        np.testing.assert_array_equal(out[i], reference)


def test_conv_state_is_base_temporal_state_only():
    """A temporal conv keeps no unfold state: it unfolds the input-sized
    difference into the shared scratch pool, so its cached state is exactly
    the base ``_prev_q_in`` / ``_prev_out_int`` / ``_prev_scale`` and
    ``state_nbytes`` (which the pool budget cap derives from) is their
    deduplicated sum."""
    engine = _conv_engine(calibrate=False, num_steps=3)
    engine.run(batch_size=2, seed=0, record_trace=False)
    from repro.quant.qlayers import QConv2d

    convs = [
        q for _, q in iter_qlayers(engine.qmodel) if isinstance(q, QConv2d)
    ]
    assert convs
    base = {"_prev_q_in", "_prev_out_int", "_prev_scale"}
    for conv in convs:
        buffers = {
            name for name, value in vars(conv).items()
            if isinstance(value, np.ndarray)
            and name not in ("q_weight", "_q_weight_f32", "bias", "weight_scale")
        }
        assert buffers <= base, buffers - base
        assert conv._prev_q_in is not None and conv._prev_out_int is not None
        state = (conv._prev_q_in, conv._prev_out_int, conv._prev_scale)
        unique = {id(a): a.nbytes for a in state if isinstance(a, np.ndarray)}
        assert conv.state_nbytes() == sum(unique.values())


def test_session_capacity_and_tags():
    engine = _conv_engine(calibrate=False, num_steps=3)
    shape = (1,) + engine.pipeline.sample_shape
    with engine.open_session(capacity=1) as session:
        session.admit(np.zeros(shape), tag="a")
        with pytest.raises(RuntimeError, match="at capacity"):
            session.admit(np.ones(shape), tag="b")
        with pytest.raises(KeyError):
            session.evict("missing")
        assert session.tags == ["a"]


def test_run_without_trace_matches_instrumented():
    """record_trace=False must change only the trace, never the samples."""
    engine = _cfg_engine()
    instrumented = engine.run(batch_size=2, seed=13)
    bare = engine.run(batch_size=2, seed=13, record_trace=False)
    np.testing.assert_array_equal(instrumented.samples, bare.samples)
    assert len(instrumented.rich_trace) > 0
    assert len(bare.rich_trace) == 0
    assert bare.num_model_calls == instrumented.num_model_calls
