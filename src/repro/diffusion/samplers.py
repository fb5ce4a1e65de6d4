"""Reverse-process samplers: DDPM (ancestral), DDIM, and PLMS.

These implement the samplers in Table I of the paper.  The property Ditto
exploits - gradual drift of the latent across steps and therefore high
temporal similarity of every layer's activations - is produced by these
update rules, so they are implemented faithfully (DDIM from Song et al.,
PLMS from Liu et al. including the pseudo-improved-Euler warmup step, which
is the "extra step 50'" visible in the paper's Fig. 4a).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .schedule import DiffusionSchedule

__all__ = ["Sampler", "DDPMSampler", "DDIMSampler", "PLMSSampler", "DPMSolverPlusPlusSampler", "make_sampler"]


class Sampler:
    """Base class: maps (x_t, eps_hat) -> x_{t-1} along spaced timesteps.

    Samplers hold no mutable state.  What a multi-step sampler remembers of
    earlier steps (PLMS's past eps, DPM-Solver++'s previous data
    prediction) is a per-row *history* tuple: :meth:`step` takes a row's
    history and returns its successor, and the driver carries it from step
    to step (:meth:`GenerationPipeline.denoise_rows
    <repro.diffusion.pipeline.GenerationPipeline.denoise_rows>`).  A row
    can therefore sit at any step next to any other row.
    """

    name = "base"
    # Most past values a row's history holds (0: single-step sampler); a
    # row entering step k holds min(k, history_len) of them.
    history_len = 0
    # Whether step 0 evaluates the denoiser a second time, at the
    # ``warmup_point(eps, x) -> (x, t)`` the sampler then defines (PLMS).
    warmup = False

    def __init__(self, schedule: DiffusionSchedule, num_steps: int) -> None:
        self.schedule = schedule
        self.num_steps = num_steps
        self.timesteps = schedule.spaced_timesteps(num_steps)

    def prev_timestep(self, index: int) -> int:
        """Training timestep the sampler jumps to from ``timesteps[index]``."""
        if index + 1 < len(self.timesteps):
            return int(self.timesteps[index + 1])
        return -1

    @property
    def needs_rng(self) -> bool:
        """Whether :meth:`step` draws noise (stochastic posterior sampling)."""
        return False

    def call_index(self, index):
        """Denoiser-call index of step ``index``'s evaluation (arrays too).

        It differs from the step index only after a warmup step: PLMS's
        step k > 0 is call k + 1.
        """
        return index + (index > 0) if self.warmup else index

    def step(
        self,
        eps: np.ndarray,
        index: int,
        x: np.ndarray,
        rng: Optional[np.random.Generator] = None,
        history: Tuple[np.ndarray, ...] = (),
        eps_next: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, Tuple[np.ndarray, ...]]:
        """Advance ``x`` from step ``index``; returns ``(x_prev, history)``.

        ``eps_next`` is step 0's warmup evaluation, for samplers with one.
        """
        raise NotImplementedError

    def step_rows(
        self,
        eps: np.ndarray,
        indices: np.ndarray,
        x: np.ndarray,
        rngs: Sequence[Optional[np.random.Generator]],
        histories: Sequence[tuple],
        eps_next: Dict[int, np.ndarray],
    ) -> Tuple[np.ndarray, List[tuple]]:
        """Advance each batch row at its *own* step index.

        Row ``r`` of ``x``/``eps`` sits at trajectory index ``indices[r]``,
        carries ``histories[r]`` (and its warmup evaluation ``eps_next[r]``,
        if any), and draws its posterior noise from ``rngs[r]`` (``None``
        for deterministic samplers).  Implemented as per-row invocations of the scalar
        :meth:`step` - the update rules are elementwise per sample, so this
        is trivially bit-exact with the batch-1 run each row is replaying,
        which is the whole point: batching must not perturb any request's
        result.  Rows may share one generator: standard-normal draws are
        chunk-invariant, so drawing row by row from it yields exactly one
        batch-wide draw.

        Returns ``(x_prev, histories)``.
        """
        batch = x.shape[0]
        # Validate every row's stream BEFORE drawing from any: a mid-batch
        # failure after partial draws would silently desynchronize the
        # earlier rows' streams from their batch-1 references on retry.
        if self.needs_rng:
            bad = [r for r in range(batch) if rngs[r] is None]
            if bad:
                raise ValueError(
                    f"sampler {self.name!r} needs an rng stream per row; "
                    f"row(s) {bad} have none"
                )
        rows = [
            self.step(
                eps[r : r + 1],
                int(indices[r]),
                x[r : r + 1],
                rng=rngs[r],
                history=histories[r],
                eps_next=eps_next.get(r),
            )
            for r in range(batch)
        ]
        return (
            np.concatenate([x_row for x_row, _ in rows], axis=0),
            [history for _, history in rows],
        )

    def _predict_x0(self, x: np.ndarray, eps: np.ndarray, a_bar: float) -> np.ndarray:
        # math.sqrt returns a weak Python float (NEP 50): identical bits to
        # np.sqrt on the float64 path, but it cannot promote a float32 x/eps.
        return (x - math.sqrt(1.0 - a_bar) * eps) / math.sqrt(a_bar)


class DDIMSampler(Sampler):
    """Deterministic DDIM (eta = 0 unless specified)."""

    name = "ddim"

    def __init__(
        self, schedule: DiffusionSchedule, num_steps: int, eta: float = 0.0
    ) -> None:
        super().__init__(schedule, num_steps)
        self.eta = eta

    @property
    def needs_rng(self) -> bool:
        return self.eta > 0.0

    def step(self, eps, index, x, rng=None, history=(), eps_next=None):
        t = int(self.timesteps[index])
        a_bar = self.schedule.alpha_bar(t)
        a_bar_prev = self.schedule.alpha_bar(self.prev_timestep(index))
        x0 = self._predict_x0(x, eps, a_bar)
        sigma = self.eta * math.sqrt(
            (1.0 - a_bar_prev) / (1.0 - a_bar) * (1.0 - a_bar / a_bar_prev)
        )
        direction = math.sqrt(max(1.0 - a_bar_prev - sigma ** 2, 0.0)) * eps
        x_prev = math.sqrt(a_bar_prev) * x0 + direction
        if sigma > 0.0:
            if rng is None:
                raise ValueError("stochastic DDIM (eta>0) needs an rng")
            noise = rng.standard_normal(x.shape).astype(x.dtype, copy=False)
            x_prev = x_prev + sigma * noise
        return x_prev, ()


class DDPMSampler(Sampler):
    """Ancestral sampler of Ho et al. (stochastic posterior sampling)."""

    name = "ddpm"

    @property
    def needs_rng(self) -> bool:
        return True

    def step(self, eps, index, x, rng=None, history=(), eps_next=None):
        if rng is None:
            raise ValueError("DDPM ancestral sampling needs an rng")
        t = int(self.timesteps[index])
        beta = float(self.schedule.betas[t])
        alpha = 1.0 - beta
        a_bar = self.schedule.alpha_bar(t)
        mean = (x - beta / math.sqrt(1.0 - a_bar) * eps) / math.sqrt(alpha)
        if self.prev_timestep(index) < 0:
            return mean, ()
        noise = rng.standard_normal(x.shape).astype(x.dtype, copy=False)
        return mean + math.sqrt(beta) * noise, ()


class PLMSSampler(Sampler):
    """Pseudo Linear Multi-Step sampler (Liu et al.), used by SDM in Table I.

    Combines the current noise prediction with up to three past ones (the
    row's history) in the 4th-order Adams-Bashforth rule once warm; the
    very first step uses the pseudo improved-Euler correction, which costs
    one extra denoiser evaluation at :meth:`warmup_point` (the paper's
    "extra step").
    """

    name = "plms"
    history_len = 3
    warmup = True

    def _transfer(self, x: np.ndarray, eps: np.ndarray, index: int) -> np.ndarray:
        t = int(self.timesteps[index])
        a_bar = self.schedule.alpha_bar(t)
        a_bar_prev = self.schedule.alpha_bar(self.prev_timestep(index))
        x0 = self._predict_x0(x, eps, a_bar)
        return math.sqrt(a_bar_prev) * x0 + math.sqrt(1.0 - a_bar_prev) * eps

    def warmup_point(self, eps: np.ndarray, x: np.ndarray):
        """The naive x_{t-1} of step 0 and its timestep."""
        return self._transfer(x, eps, 0), max(self.prev_timestep(0), 0)

    def step(self, eps, index, x, rng=None, history=(), eps_next=None):
        if not history:
            # Pseudo improved Euler: average with the evaluation at the
            # naive x_{t-1}; plain Euler when no warmup evaluation is given.
            eps_prime = eps if eps_next is None else 0.5 * (eps + eps_next)
        elif len(history) == 1:
            eps_prime = (3.0 * eps - history[-1]) / 2.0
        elif len(history) == 2:
            eps_prime = (23.0 * eps - 16.0 * history[-1] + 5.0 * history[-2]) / 12.0
        else:
            eps_prime = (
                55.0 * eps
                - 59.0 * history[-1]
                + 37.0 * history[-2]
                - 9.0 * history[-3]
            ) / 24.0
        history = (history + (eps,))[-self.history_len :]
        return self._transfer(x, eps_prime, index), history


class DPMSolverPlusPlusSampler(Sampler):
    """DPM-Solver++(2M): second-order multistep solver in lambda-space.

    Not used by the paper's Table I, but the de-facto fast sampler of modern
    diffusion deployments; provided so Ditto can be studied under very short
    trajectories (fewer, larger steps -> weaker temporal similarity, the
    stress case for difference processing).  A row's history is its
    previous step's data prediction; the previous step size follows from
    the step index.
    """

    name = "dpmpp"
    history_len = 1

    def _coeffs(self, t: int):
        a_bar = self.schedule.alpha_bar(t)
        alpha = math.sqrt(a_bar)
        sigma = math.sqrt(max(1.0 - a_bar, 1e-12))
        return alpha, sigma, math.log(alpha / sigma)

    def step(self, eps, index, x, rng=None, history=(), eps_next=None):
        t = int(self.timesteps[index])
        s = self.prev_timestep(index)
        alpha_t, sigma_t, lam_t = self._coeffs(t)
        alpha_s, sigma_s, lam_s = self._coeffs(s)
        h = lam_s - lam_t
        x0 = (x - sigma_t * eps) / alpha_t
        if history:
            # 2M correction: extrapolate the data prediction.
            (prev_x0,) = history
            h_prev = lam_t - self._coeffs(int(self.timesteps[index - 1]))[2]
            r = h_prev / h if h != 0.0 else 1.0
            data = (1.0 + 1.0 / (2.0 * r)) * x0 - (1.0 / (2.0 * r)) * prev_x0
        else:
            data = x0
        if s < 0:
            # Final jump to the clean-data limit.
            return data, (x0,)
        return (sigma_s / sigma_t) * x - alpha_s * math.expm1(-h) * data, (x0,)


def make_sampler(
    name: str,
    schedule: DiffusionSchedule,
    num_steps: int,
    eta: Optional[float] = None,
) -> Sampler:
    """Factory mapping sampler names to implementations.

    ``eta`` selects stochastic DDIM (posterior noise of scale ``eta``); it is
    only meaningful for the ``ddim`` sampler.
    """
    table = {
        "ddim": DDIMSampler,
        "ddpm": DDPMSampler,
        "plms": PLMSSampler,
        "dpmpp": DPMSolverPlusPlusSampler,
    }
    if name not in table:
        raise ValueError(f"unknown sampler {name!r}; choose from {sorted(table)}")
    if eta is not None:
        if name != "ddim":
            raise ValueError(f"eta only applies to the ddim sampler, not {name!r}")
        return DDIMSampler(schedule, num_steps, eta=eta)
    return table[name](schedule, num_steps)
