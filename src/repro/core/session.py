"""Continuous-batching sessions: row-granular stepping over a DittoEngine.

Every scheduler of :mod:`repro.runtime.serving` drives one persistent
batch whose rows each carry their *own* step index; finished rows are
evicted at step boundaries.  Iteration-level (Orca-style) scheduling admits
queued requests into the freed rows at every boundary, so the denoiser
never runs below the achievable occupancy; the lockstep micro-batcher is
the same batch under a stricter admission rule (admit only into an empty
session), so its rows enter at step 0 and leave at step N together.

:class:`EngineSession` is that persistent batch.  Its correctness contract
is the serving invariance contract extended to arbitrary interleavings:

* every layer executes DENSE and holds no temporal state, so a row's step
  depends only on its own latent, timestep, sampler history and noise
  stream - never on its neighbours or on the batch's history.  Dense equals
  temporal execution by the zero-state algebra (``docs/contracts.md``),
  which ``--verify`` checks against batch-1 references that execute
  temporal;
* the session takes a lockstep run's step
  (:meth:`~repro.diffusion.pipeline.GenerationPipeline.denoise_rows`): it
  announces each row's denoiser-call index, so each row quantizes under
  exactly the TDQ cluster scale its batch-1 replay would use, and it
  advances each row with its own sampler history (PLMS's past eps,
  DPM-Solver++'s previous data prediction), so every sampler serves;
* each row draws sampler noise from its own rng stream, so stochastic
  samplers (ddpm, ddim eta>0) replay their batch-1 reference exactly.

Together: any interleaving of admissions and evictions is bit-exact with N
seeded batch-1 runs (pinned by ``tests/test_batched_state.py``).

Statelessness is also what makes the fault-tolerance contract
(:mod:`repro.runtime.faults`) provable rather than best-effort:

* a failed :meth:`EngineSession.step` leaves the session exactly where it
  was - a dense step holds no layer state, the latents and histories are
  only assigned on success, and every row's rng stream is rewound to its
  pre-step position - so a retry is an exact replay;
* :meth:`EngineSession.admit` accepts a ``step`` offset and the row's
  sampler history: a row re-admitted into a *fresh* session at trajectory
  step k computes bit-exactly what the dead session would have computed,
  since everything it depends on travels with its snapshot.  Crash
  recovery is therefore ``snapshot()`` + rebuild + re-admit, with no layer
  state migration;
* an injected :class:`~repro.runtime.faults.SessionKilled` marks the
  session unhealthy before propagating; an unhealthy session refuses
  further admissions and steps, forcing the driver through the recovery
  path instead of silently continuing on corrupt state.

Sessions never record traces - they are the throughput path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

# repro.quant imports are deferred to call time: the quantized layers import
# repro.core.bitwidth, which initializes this package, which imports this
# module - a module-level quant import here would therefore break
# ``import repro.quant`` whenever quant is the first repro package touched.
from ..scratch import clear_scratch
from .modes import ExecutionMode

__all__ = ["EngineSession"]


@dataclass
class _SessionRow:
    """One in-flight request: identity, position, noise stream, history."""

    tag: object
    step: int  # next trajectory step for this row
    rng: Optional[np.random.Generator]
    history: tuple  # the sampler's per-row memory of earlier steps


class EngineSession:
    """A persistent batch whose rows each advance at their own timestep.

    Use as a context manager (or call :meth:`close`): the session owns the
    engine's model and sets every layer DENSE at open.  While it is open,
    the engine refuses ``run``, ``derive_plan`` and a second session - an
    interleaved instrumented run would leave the layers recording and
    holding state, which the session's statelessness contract rules out.

    Parameters
    ----------
    engine:
        The :class:`~repro.core.engine.DittoEngine` to serve.
    capacity:
        Maximum concurrent rows (``None`` = unbounded).  The serving driver
        derives this from the micro-batch size sweep and, optionally, from a
        scratch-pool memory budget.

    Raises
    ------
    ValueError
        If ``capacity < 1``.
    RuntimeError
        If another session on ``engine`` is still open.
    """

    def __init__(self, engine, capacity: Optional[int] = None) -> None:
        engine._check_idle("open a session")
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.num_steps = len(engine.pipeline.sampler.timesteps)
        self._sample_shape = tuple(engine.pipeline.sample_shape)
        self._rows: List[_SessionRow] = []
        self._x = np.zeros((0,) + self._sample_shape)
        self._composition_changed = False
        self._tags = itertools.count()
        self._closed = False
        self._healthy = True
        self._unhealthy_reason = ""
        from ..quant.qlayers import reset_model_state, set_model_mode

        # Sticky scales must freeze batch-independently before any serving
        # row runs; a no-op once the engine has served anything.
        engine._freeze_scales(1)
        reset_model_state(engine.qmodel)
        set_model_mode(engine.qmodel, ExecutionMode.DENSE)
        engine._session = self

    # -- introspection ----------------------------------------------------
    @property
    def occupancy(self) -> int:
        """Number of in-flight rows."""
        return len(self._rows)

    @property
    def tags(self) -> List[object]:
        """Each in-flight row's tag, in row order."""
        return [row.tag for row in self._rows]

    @property
    def row_steps(self) -> List[int]:
        """Each in-flight row's next step index, in row order."""
        return [row.step for row in self._rows]

    @property
    def healthy(self) -> bool:
        """Whether the session still accepts admissions and steps."""
        return self._healthy

    @property
    def unhealthy_reason(self) -> str:
        """Why the session was marked unhealthy (empty while healthy)."""
        return self._unhealthy_reason

    def mark_unhealthy(self, reason: str) -> None:
        """Declare the session failed: no more admissions or steps.

        The rows (latents, steps, histories, rewound rng streams) stay
        readable via :meth:`snapshot` so the driver can re-admit them into a
        fresh session; only forward progress is refused.
        """
        self._healthy = False
        self._unhealthy_reason = reason

    def snapshot(self) -> List[Tuple[object, int, np.ndarray, tuple]]:
        """Checkpoint every in-flight row: ``[(tag, step, x, history), ...]``.

        The returned latents are copies, valid after :meth:`close`.  A
        snapshotted row re-admitted at its recorded step with its history
        into a fresh session (same engine build) continues bit-exactly: a
        dense row holds no layer state, so nothing is lost with the old
        session.
        """
        return [
            (row.tag, row.step, self._x[pos : pos + 1].copy(), row.history)
            for pos, row in enumerate(self._rows)
        ]

    def __enter__(self) -> "EngineSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- admission / eviction ---------------------------------------------
    def admit(
        self,
        x_init: np.ndarray,
        rng: Optional[np.random.Generator] = None,
        tag: Optional[object] = None,
        step: int = 0,
        history: tuple = (),
    ) -> object:
        """Queue one request into the batch, starting at step ``step``.

        ``x_init`` is the request's initial noise, shape ``sample_shape`` or
        ``(1, *sample_shape)``.  ``rng`` is the request's private sampler
        noise stream (required for stochastic samplers).  Returns the row's
        ``tag`` (auto-assigned if not given).  Takes effect at the next
        :meth:`step`.

        ``step > 0`` is the crash-recovery path: ``x_init`` is then the
        row's :meth:`snapshot` latent and history (``()`` for single-step
        samplers) and ``rng`` its stream fast-forwarded past the draws
        already spent.  Mid-trajectory admission is bit-exact for the same reason
        step-0 admission is - a dense step depends only on the row's latent,
        timestep, history and stream.
        """
        self._check_open()
        self._check_healthy()
        if not 0 <= step < self.num_steps:
            raise ValueError(
                f"admission step must be in [0, {self.num_steps}), got {step}"
            )
        if self.capacity is not None and len(self._rows) >= self.capacity:
            raise RuntimeError(
                f"session is at capacity ({self.capacity} rows); evict or "
                "step before admitting"
            )
        x = np.asarray(x_init, dtype=np.float64)
        if x.shape == self._sample_shape:
            x = x[None]
        if x.shape != (1,) + self._sample_shape:
            raise ValueError(
                f"x_init must have shape {self._sample_shape} or "
                f"(1, {', '.join(map(str, self._sample_shape))}); "
                f"got {x.shape}"
            )
        sampler = self.engine.pipeline.sampler
        history = tuple(history)
        if len(history) != min(step, sampler.history_len):
            raise ValueError(
                f"a {sampler.name!r} row admitted at step {step} needs its "
                f"snapshot history of {min(step, sampler.history_len)} "
                f"values; got {len(history)}"
            )
        if rng is None and sampler.needs_rng:
            raise ValueError(
                f"sampler {sampler.name!r} draws posterior noise; admit() "
                "needs the request's private rng stream"
            )
        if tag is None:
            tag = next(self._tags)
        elif any(row.tag == tag for row in self._rows):
            raise ValueError(f"tag {tag!r} is already in flight")
        self._rows.append(_SessionRow(tag, step, rng, history))
        self._x = np.concatenate([self._x, x], axis=0)
        self._composition_changed = True
        return tag

    def evict(self, tag: object) -> np.ndarray:
        """Remove an in-flight row (cancellation); returns its current x."""
        self._check_open()
        for pos, row in enumerate(self._rows):
            if row.tag == tag:
                x_row = self._x[pos : pos + 1].copy()
                self._drop(pos)
                return x_row
        raise KeyError(f"no in-flight row tagged {tag!r}")

    def _drop(self, pos: int) -> None:
        del self._rows[pos]
        self._x = np.delete(self._x, pos, axis=0)
        self._composition_changed = True

    # -- stepping ----------------------------------------------------------
    def step(self) -> List[Tuple[object, np.ndarray]]:
        """Advance every in-flight row by one step; one denoiser call.

        Takes the pipeline's per-row step
        (:meth:`~repro.diffusion.pipeline.GenerationPipeline.denoise_rows`)
        over the current rows and auto-evicts rows that completed their
        trajectory.  Returns ``[(tag, sample), ...]`` for the completed rows
        (sample shape ``(1, *sample_shape)``).

        On failure the step is an exact no-op: the dense layers hold no
        state, latents and histories are untouched, and every row's rng
        stream is rewound past any partial draws, so a retry replays the
        step bit-exactly.  An ambient :class:`~repro.runtime.faults.FaultPlan` may inject an
        error or a kill here; a kill marks the session unhealthy before
        propagating.
        """
        from ..runtime import faults

        self._check_open()
        self._check_healthy()
        if not self._rows:
            raise RuntimeError("no in-flight rows; admit before stepping")
        batch = len(self._rows)
        if self._composition_changed:
            # The scratch pool keys buffers by (tag, shape) and never
            # evicts; occupancy churn would otherwise accumulate one buffer
            # set per distinct batch size (~capacity^2/2 rows at peak).
            # Dropping the pool at composition changes costs one
            # buffer-set reallocation per admission/eviction - negligible
            # against a denoiser step - and pins peak scratch to the
            # current batch size.
            clear_scratch()
            self._composition_changed = False
        steps = np.array([row.step for row in self._rows])
        # Snapshot every row's stream position before any draw: a failure
        # after partial per-row draws (the sampler advances rows one at a
        # time) must not leave the earlier rows' streams ahead of their
        # batch-1 references on retry.
        rng_states = [faults.capture_rng_state(row.rng) for row in self._rows]
        try:
            plan = faults.active()
            if plan is not None:
                plan.on_step_attempt([row.tag for row in self._rows], steps)
            rows = self._rows
            x_new, histories = self.engine.pipeline.denoise_rows(
                self._x, steps, [r.rng for r in rows], [r.history for r in rows]
            )
        except BaseException as exc:
            for row, state in zip(self._rows, rng_states):
                faults.restore_rng_state(row.rng, state)
            if isinstance(exc, faults.SessionKilled):
                self.mark_unhealthy(str(exc) or "session killed")
            raise
        self._x = x_new
        for row, history in zip(self._rows, histories):
            row.history = history
        finished: List[Tuple[object, np.ndarray]] = []
        for pos in range(batch - 1, -1, -1):
            row = self._rows[pos]
            row.step += 1
            if row.step >= self.num_steps:
                finished.append((row.tag, self._x[pos : pos + 1].copy()))
                self._drop(pos)
        finished.reverse()  # report in row order
        return finished

    def run_to_completion(self) -> Dict[object, np.ndarray]:
        """Step until the batch drains; returns ``{tag: sample}``."""
        samples: Dict[object, np.ndarray] = {}
        while self._rows:
            for tag, sample in self.step():
                samples[tag] = sample
        return samples

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Release the engine: drop layer state and scratch buffers."""
        from ..quant.qlayers import reset_model_state

        if self._closed:
            return
        self._closed = True
        self._rows = []
        self._x = np.zeros((0,) + self._sample_shape)
        reset_model_state(self.engine.qmodel)
        clear_scratch()
        if self.engine._session is self:
            self.engine._session = None

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("session is closed")

    def _check_healthy(self) -> None:
        if not self._healthy:
            raise RuntimeError(
                f"session is unhealthy ({self._unhealthy_reason}); snapshot "
                "the rows, rebuild the engine, and re-admit"
            )
