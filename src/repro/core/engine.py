"""DittoEngine - one-stop driver producing rich traces and samples.

The engine wires everything together for a benchmark:

1. quantize the FP32 denoiser (optionally with trajectory calibration),
2. run Defo's static graph analysis once per engine (annotating chained
   inputs / producer non-linearities),
3. generate a trajectory with the quantized model under a
   :class:`~repro.core.trace.TraceRecorder`; each record carries the
   denoiser-call index the pipeline's step announces (PLMS's warmup call
   counts as the paper's "extra step"),
4. return an :class:`EngineResult` bundling the rich trace, the generated
   samples, and the static info.

Because every execution mode reconstructs the identical quantized values,
one engine run supports every downstream analysis: BOPs, Defo decisions on
any hardware, and all hardware comparisons.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from ..diffusion.pipeline import GenerationPipeline
from ..diffusion.samplers import make_sampler
from ..diffusion.schedule import DiffusionSchedule
from ..nn.module import Module

# NOTE: repro.quant imports are deliberately deferred to call time.  The
# quantized layers import repro.core.bitwidth, which initializes this
# package, which imports this module - a module-level import of
# repro.quant here therefore breaks ``import repro.quant`` whenever quant
# is the first repro package touched (partially-initialized-module
# ImportError).  Every method below needs them only at execution time.
from .config import EngineConfig
from .graphinfo import GraphAnalyzer, LayerStaticInfo
from .modes import ExecutionMode
from .trace import RichTrace, TraceRecorder

__all__ = ["EngineResult", "DittoEngine"]


@dataclass
class EngineResult:
    """Everything one instrumented generation run produced."""

    benchmark: str
    rich_trace: RichTrace
    samples: np.ndarray
    static_info: Dict[str, LayerStaticInfo] = field(default_factory=dict)
    num_model_calls: int = 0

    def summary(self) -> str:
        return (
            f"{self.benchmark}: {self.num_model_calls} denoiser calls, "
            f"{len(self.rich_trace)} layer records over "
            f"{self.rich_trace.num_steps()} steps, "
            f"{self.rich_trace.total_macs():,} MACs"
        )


class DittoEngine:
    """Runs a quantized diffusion model and records the Ditto-rich trace."""

    # The one compute path (``repro.nn.backends``), named for run records.
    backend = "reference"
    effective_backend = "reference"
    backend_fallback_reason = None

    def __init__(
        self,
        qmodel: Module,
        pipeline: GenerationPipeline,
        config: EngineConfig,
        benchmark: str = "custom",
    ) -> None:
        self.qmodel = qmodel
        self.pipeline = pipeline
        self.config = config
        self.benchmark = benchmark
        self._session = None  # the open EngineSession, if any
        # Defo's static info, from the first instrumented run's graph probe:
        # structural, so independent of the batch size and of later runs.
        self._static_info: Optional[Dict[str, LayerStaticInfo]] = None

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_model(
        cls,
        fp_model: Module,
        config: EngineConfig,
        sample_shape,
        conditioning: Optional[dict] = None,
        uncond_conditioning: Optional[dict] = None,
        benchmark: str = "custom",
        num_train_steps: int = 1000,
    ) -> "DittoEngine":
        """Quantize ``fp_model`` as ``config`` says and wrap it.

        ``config.calibrate`` runs one trajectory first (Q-Diffusion-style
        offline calibration) so input scales cover the whole value drift, in
        ``config.calibration_dtype`` precision (see
        :func:`repro.quant.calibration.calibration_precision`).
        ``config.step_clusters > 1`` switches to timestep-clustered
        quantization (TDQ synergy, see :mod:`repro.quant.tdq`): each cluster
        of steps gets its own, tighter scale, and the engine re-runs one
        dense step at each cluster boundary.  ``config.guidance_scale``
        enables classifier-free guidance over ``uncond_conditioning`` (the
        calibration trajectory then covers the stacked [cond; uncond] layout
        the serving run uses).  The model is quantized *in place*; the
        engine records ``config`` as ``engine.config``.
        """
        schedule = DiffusionSchedule(num_train_steps)
        sampler = make_sampler(
            config.sampler, schedule, config.num_steps, eta=config.sampler_eta
        )
        pipeline = GenerationPipeline(
            fp_model,
            sampler,
            sample_shape,
            conditioning,
            guidance_scale=config.guidance_scale,
            uncond_conditioning=uncond_conditioning,
        )
        from ..quant.calibration import calibrate_model, calibration_precision
        from ..quant.qlayers import quantize_model

        rng = np.random.default_rng(config.calibration_seed)

        def run_trajectory():
            return pipeline.generate(1, rng)

        if config.step_clusters > 1:
            from ..quant.calibration import calibrate_model_clustered

            # The trajectory's steps announce their denoiser-call indices,
            # which bucket the observed ranges by cluster.
            with calibration_precision(fp_model, pipeline, config.calibration_dtype):
                quantizers = calibrate_model_clustered(
                    fp_model,
                    run_trajectory,
                    num_steps=pipeline.num_model_calls(),
                    num_clusters=config.step_clusters,
                )
            qmodel = quantize_model(fp_model, input_quantizers=quantizers)
        else:
            if config.calibrate:
                with calibration_precision(fp_model, pipeline, config.calibration_dtype):
                    scales = calibrate_model(fp_model, run_trajectory)
            else:
                scales = None
            qmodel = quantize_model(fp_model, calibration=scales)
        pipeline.model = qmodel
        return cls(qmodel, pipeline, config, benchmark=benchmark)

    @classmethod
    def from_benchmark(cls, spec, **axes) -> "DittoEngine":
        """Build an engine from a Table I :class:`BenchmarkSpec`.

        ``axes`` override the spec's build axes by :class:`EngineConfig`
        field name (``num_steps``, ``sampler``, ``calibrate``, ...); see
        :meth:`EngineConfig.resolve`.  A guidance scale, from the spec or
        passed, requires the spec's ``build_uncond_conditioning`` (e.g. the
        empty-prompt embedding for text-conditional benchmarks).
        """
        fp_model = spec.build_model()
        conditioning = spec.build_conditioning()
        config = EngineConfig.resolve(spec, **axes)
        uncond_conditioning = None
        if config.guidance_scale is not None:
            if spec.build_uncond_conditioning is None:
                raise ValueError(
                    f"benchmark {spec.name!r} has no build_uncond_conditioning; "
                    "classifier-free guidance needs an unconditional branch"
                )
            uncond_conditioning = spec.build_uncond_conditioning()
        return cls.from_model(
            fp_model,
            config,
            spec.sample_shape,
            conditioning,
            uncond_conditioning=uncond_conditioning,
            benchmark=spec.name,
        )

    # -- static analysis -----------------------------------------------------
    def analyze_graph(self, batch_size: int = 1) -> Dict[str, LayerStaticInfo]:
        """Defo static pass: annotate layers via one probe invocation.

        The probe draws *one* sample and tiles it along the batch axis.  This
        matters beyond graph analysis: quantizers still uncalibrated at this
        point (attention's internal Q/K/V quantizers, every layer when
        ``calibrate=False``) freeze their scale on the first tensor they see -
        the probe.  Identical rows make the frozen scales independent of the
        batch size, which is what lets a batch-N run reproduce N batch-1 runs
        bit-exactly (the serving contract pinned by the batched-state tests).
        """
        from ..quant.qlayers import reset_model_state, set_model_mode

        reset_model_state(self.qmodel)
        set_model_mode(self.qmodel, ExecutionMode.DENSE)
        probe_fn = self._probe_fn(batch_size)
        info = GraphAnalyzer(self.qmodel).analyze(probe_fn)
        reset_model_state(self.qmodel)
        return info

    def _probe_fn(self, batch_size: int):
        """One dense probe invocation over a single sample tiled to batch."""
        shape = (1,) + self.pipeline.sample_shape
        probe = np.random.default_rng(0).standard_normal(shape)
        if batch_size > 1:
            probe = np.repeat(probe, batch_size, axis=0)
        t_first = int(self.pipeline.sampler.timesteps[0])
        return lambda: self.pipeline.predict_noise(probe, t_first)

    def _freeze_scales(self, batch_size: int) -> None:
        """The probe forward alone (no graph hooks): freezes every sticky
        quantizer scale exactly as :meth:`analyze_graph` would, without
        paying for static-info construction the caller will discard.

        Skipped entirely once every sticky quantizer is calibrated - scales
        survive ``reset_state`` across runs, so in a serving loop only the
        first uninstrumented run pays for the probe forward.
        """
        if self._scales_frozen():
            return
        from ..quant.qlayers import reset_model_state, set_model_mode

        reset_model_state(self.qmodel)
        set_model_mode(self.qmodel, ExecutionMode.DENSE)
        self._probe_fn(batch_size)()
        reset_model_state(self.qmodel)

    def _scales_frozen(self) -> bool:
        from ..quant.qlayers import QAttention, iter_qlayers

        for _, qlayer in iter_qlayers(self.qmodel):
            if isinstance(qlayer, QAttention):
                # The wrapper's input_quant is its children's (self
                # attention) or never exercised (cross attention, where the
                # projections quantize); requiring it would force the probe
                # forward on every uninstrumented run forever.
                if not all(
                    q.calibrated
                    for q in (
                        qlayer.q_quant, qlayer.k_quant,
                        qlayer.v_quant, qlayer.p_quant,
                    )
                ):
                    return False
            elif not qlayer.input_quant.calibrated:
                return False
        return True

    # -- plan derivation -----------------------------------------------------
    def derive_plan(
        self,
        seed: int = 0,
        batch_size: int = 1,
        hardware: str = "Ditto",
    ):
        """Run one instrumented pass and extract its :class:`ExecutionPlan`.

        The plan-then-execute split (see ``docs/plan-cache.md``): every
        serve derives its plan with this run on a cache miss, or repeats it
        once to drift-check a cached plan; the served runs replay with
        ``record_trace=False`` and report the plan's derived bitwidth/Defo
        numbers.  Deterministic - the same engine, seed, and batch size
        always derive the identical plan (digest included), which is what
        the serving drift check relies on.

        Parameters
        ----------
        seed, batch_size:
            The derivation run's parameters; recorded in the plan so the
            drift check can replay them exactly.
        hardware:
            Accelerator name for the Defo cycle model.

        Returns
        -------
        repro.core.plan.ExecutionPlan

        Raises
        ------
        RuntimeError
            While a session is open on this engine (see :meth:`run`).
        """
        from .plan import extract_plan

        result = self.run(batch_size=batch_size, seed=seed)
        return extract_plan(
            result,
            hardware=hardware,
            derivation_seed=seed,
            derivation_batch_size=batch_size,
        )

    # -- row-granular serving ------------------------------------------------
    def open_session(self, capacity: Optional[int] = None):
        """Open a continuous-batching session over this engine.

        The session owns the model until closed: rows are admitted/evicted
        at step boundaries and each advances at its own timestep, executing
        dense and bit-exact with its seeded batch-1 reference run.  See
        :class:`repro.core.session.EngineSession`.  A session never
        instruments; the serving tier reads its bitwidth/Defo numbers from
        the engine's :class:`~repro.core.plan.ExecutionPlan`
        (:meth:`derive_plan`).

        Raises ``RuntimeError`` while another session on this engine is
        open: one engine serves one session at a time.
        """
        from .session import EngineSession

        return EngineSession(self, capacity=capacity)

    def _check_idle(self, action: str) -> None:
        """Refuse ``action`` while a session owns the model."""
        if self._session is not None:
            raise RuntimeError(
                f"cannot {action}: an EngineSession is open on this engine; "
                "close it first"
            )

    # -- instrumented generation --------------------------------------------
    def run(
        self,
        batch_size: int = 1,
        seed: int = 0,
        x_init: Optional[np.ndarray] = None,
        record_trace: bool = True,
        rngs: Optional[Sequence[np.random.Generator]] = None,
    ) -> EngineResult:
        """Generate one batch while recording the rich trace.

        ``x_init`` seeds the trajectory with explicit initial noise of shape
        ``(batch, *sample_shape)`` instead of drawing from ``seed``; the
        serving runtime uses it to stack independently-seeded requests into
        one micro-batch.  ``rngs`` supplies one independent noise stream per
        batch element (``SeedSequence.spawn``-style) for the sampler's
        stochastic draws, extending the batch-invariance contract to
        ddpm/eta>0: a batch-N run over streams ``[g_0..g_{N-1}]`` is
        bit-exact with N batch-1 runs each passed its own ``g_i``.

        Every layer executes dense.  An instrumented run records temporal:
        each layer holds only the operands it differences and classifies
        the differences into the trace.  ``record_trace=False`` skips all
        bit-width instrumentation (the rich trace comes back empty) and
        holds no state - the throughput configuration.  Both give the same
        samples, which by the zero-state algebra (``docs/contracts.md``) are
        also those of temporal execution.

        Raises ``RuntimeError`` while a session is open on this engine: the
        run would reset and re-mode the layers the session is serving.
        """
        return self._run(batch_size, seed, x_init, record_trace, rngs)

    def _run(
        self,
        batch_size: int = 1,
        seed: int = 0,
        x_init: Optional[np.ndarray] = None,
        record_trace: bool = True,
        rngs: Optional[Sequence[np.random.Generator]] = None,
        execution: ExecutionMode = ExecutionMode.DENSE,
    ) -> EngineResult:
        """:meth:`run`, executing every layer in ``execution`` mode.

        ``ExecutionMode.TEMPORAL`` runs the difference algebra itself
        (``prev_out + diff @ W`` and attention's two-GEMM forms): the
        reference that pins the zero-state contract end to end, for
        ``--verify`` and the exactness tests.  Nothing else needs it.
        """
        self._check_idle("run the engine")
        if x_init is not None:
            x_init = np.asarray(x_init)
            expected_ndim = 1 + len(self.pipeline.sample_shape)
            if x_init.ndim != expected_ndim:
                raise ValueError(
                    f"x_init must be (batch, *sample_shape), i.e. "
                    f"{expected_ndim}-d with trailing shape "
                    f"{self.pipeline.sample_shape}; got shape {x_init.shape}"
                )
            if batch_size not in (1, x_init.shape[0]):
                raise ValueError(
                    f"batch_size={batch_size} conflicts with x_init batch "
                    f"dimension {x_init.shape[0]}; pass one or the other"
                )
            batch_size = x_init.shape[0]
        if rngs is not None and len(rngs) != batch_size:
            raise ValueError(
                f"rngs supplies {len(rngs)} per-element streams for a batch "
                f"of {batch_size}; need exactly one stream per element"
            )
        if record_trace and self._static_info is None:
            self._static_info = self.analyze_graph(batch_size)
        else:
            # The probe freezes sticky scales once per engine; later runs,
            # and plain runs that discard static info, skip the hooks.
            self._freeze_scales(batch_size)
        static_info = dict(self._static_info) if record_trace else {}
        from ..quant.qlayers import reset_model_state, set_model_mode

        reset_model_state(self.qmodel)
        # A layer's first call finds no state and executes dense, so one
        # mode serves the whole run.
        set_model_mode(self.qmodel, execution, record_temporal=record_trace)
        recorder = TraceRecorder()
        rng = np.random.default_rng(seed)
        with recorder if record_trace else contextlib.nullcontext():
            samples = self.pipeline.generate(
                batch_size, rng, x_init=x_init, rngs=rngs
            )
        return EngineResult(
            benchmark=self.benchmark,
            rich_trace=recorder.trace,
            samples=samples,
            static_info=static_info,
            num_model_calls=self.pipeline.num_model_calls(),
        )
