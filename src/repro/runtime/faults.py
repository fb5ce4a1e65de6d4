"""Deterministic fault injection and the serving tier's failure model.

Serving (PR 3-4) assumed every step succeeds and every request runs to
completion.  This module supplies the primitives that drop that assumption
without giving up the repo's bit-exactness contract:

* :class:`FaultPlan` - a declarative schedule of injected failures
  (step exceptions, session kills, artificial step latency, cache-read
  corruption, cancellations) addressed by (request, step) coordinates, so
  every recovery path is exercised *reproducibly* in tests and CI;
* :class:`CancelToken` - per-request cancellation, checked by the
  serving scheduler at step boundaries;
* :class:`ReplayableRNG` - a draw-counting wrapper around a request's
  private sampler stream.  Draws in the serving paths are always shape
  ``(1, *sample_shape)``, so the *count* alone pins the stream position:
  crash recovery rebuilds the stream from the request's ``SeedSequence``
  seed and fast-forwards past the recorded draws, and a failed step rewinds
  every row to its pre-step position for an exact retry.

Fault-spec grammar (``--fault-spec`` / ``$REPRO_FAULTS``)::

    spec   := entry (';' entry)*
    entry  := kind '@' key=value (',' key=value)*

    error  @ [req=R,] step=S [,times=N|*]          raise before the forward
    kill   @ [req=R,] step=S [,times=N|*]          kill the session (unhealthy)
    delay  @ [req=R,] step=S, ms=M [,times=N|*]    add M ms simulated latency
    cancel @ req=R, (at=T | step=S)                trip R's cancellation token
    corrupt@ [read=N|*] [,times=N|*]               scribble over a cache read

With ``req=R`` the coordinate means "request R is in flight at its row-step
S"; without it, ``step=S`` addresses the S-th step *attempt* of the drain
(0-based, counted across retries and recoveries).  ``times`` caps how often
an entry fires (default once, ``*`` = unlimited), so a plan fires the same
faults at the same coordinates on every replay of the same trace.

Injected latency and cancellation trip times live on the *simulated* clock
(the one arrivals and deadlines use), so a ``delay`` entry deterministically
expires a deadline without slowing the wall-clock test down.

Plans installed via :func:`install` are consulted by
:meth:`EngineSession.step <repro.core.session.EngineSession.step>` (step
errors and kills) and :meth:`ResultCache.get <repro.runtime.cache.ResultCache.get>`
(read corruption); an ambient plan parsed from ``$REPRO_FAULTS`` is the
fallback when none is installed.  The env-derived plan is memoized per spec
string so its ``times`` budgets span the whole process - the intended use is
one-shot CLI runs.
"""

from __future__ import annotations

import copy
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "InjectedFault",
    "SessionKilled",
    "CancelToken",
    "ReplayableRNG",
    "FaultEntry",
    "FaultPlan",
    "install",
    "active",
    "capture_rng_state",
    "restore_rng_state",
]

FAULT_KINDS = ("error", "kill", "delay", "cancel", "corrupt")


class InjectedFault(RuntimeError):
    """A fault raised by a :class:`FaultPlan` at a step attempt."""


class SessionKilled(InjectedFault):
    """An injected crash: the session is unusable and must be rebuilt."""


class CancelToken:
    """Per-request cancellation flag, checked at step boundaries.

    Cooperative: cancelling never interrupts a running step - the serving
    loop evicts the row at the next boundary, which is exactly the
    granularity at which eviction is bit-exact for the survivors.
    """

    __slots__ = ("_cancelled", "reason")

    def __init__(self) -> None:
        self._cancelled = False
        self.reason = ""

    def cancel(self, reason: str = "") -> None:
        """Latch the token cancelled (idempotent), keeping the first reason."""
        self._cancelled = True
        if reason:
            self.reason = reason

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called."""
        return self._cancelled


class ReplayableRNG:
    """A draw-counting wrapper around a request's sampler noise stream.

    Samplers only ever call ``standard_normal`` with the row shape
    ``(1, *sample_shape)``, so ``draws`` fully determines the stream
    position.  That buys two replay operations:

    * :meth:`capture_state` / :meth:`restore_state` - exact rewind after a
      failed step (undoing partial per-row draws before a retry);
    * :meth:`fast_forward` - crash recovery rebuilds the stream from the
      request's seed and skips the draws its journal recorded, landing the
      fresh generator bit-exactly where the dead session left off.
    """

    __slots__ = ("generator", "draws")

    def __init__(self, generator: np.random.Generator) -> None:
        self.generator = generator
        self.draws = 0

    def standard_normal(self, *args, **kwargs):
        """Draw from the wrapped generator, counting the call."""
        self.draws += 1
        return self.generator.standard_normal(*args, **kwargs)

    def capture_state(self) -> Dict[str, object]:
        """Snapshot the draw count and exact bit-generator state."""
        return {
            "draws": self.draws,
            "state": copy.deepcopy(self.generator.bit_generator.state),
        }

    def restore_state(self, snapshot: Mapping[str, object]) -> None:
        """Rewind to a :meth:`capture_state` snapshot (exact bit-for-bit)."""
        self.draws = int(snapshot["draws"])
        self.generator.bit_generator.state = copy.deepcopy(snapshot["state"])

    def fast_forward(self, draws: int, shape: Tuple[int, ...]) -> None:
        """Skip ``draws`` row-shaped draws, landing where a dead stream left off."""
        for _ in range(draws):
            self.standard_normal(shape)


def capture_rng_state(rng) -> Optional[object]:
    """Snapshot any row stream (plain Generator or :class:`ReplayableRNG`)."""
    if rng is None:
        return None
    capture = getattr(rng, "capture_state", None)
    if capture is not None:
        return capture()
    return copy.deepcopy(rng.bit_generator.state)


def restore_rng_state(rng, snapshot: Optional[object]) -> None:
    """Rewind a row stream to a :func:`capture_rng_state` snapshot."""
    if rng is None:
        return
    restore = getattr(rng, "restore_state", None)
    if restore is not None:
        restore(snapshot)
        return
    rng.bit_generator.state = copy.deepcopy(snapshot)


@dataclass
class FaultEntry:
    """One parsed fault-spec entry; ``times`` is its remaining firing budget."""

    kind: str
    req: Optional[int] = None
    step: Optional[int] = None
    at: Optional[float] = None
    ms: float = 0.0
    read: Optional[int] = None
    times: Optional[int] = 1  # None = unlimited

    def spent(self) -> bool:
        """Whether the firing budget is exhausted (``times=None`` never spends)."""
        return self.times is not None and self.times <= 0

    def consume(self) -> None:
        """Spend one firing from the budget (no-op for unlimited entries)."""
        if self.times is not None:
            self.times -= 1

    def coord(self) -> str:
        """Human rendering of the entry's firing coordinate for fault logs."""
        if self.req is not None:
            return f"req={self.req}, step={self.step}"
        return f"attempt={self.step}"


def _parse_int_or_star(value: str, key: str) -> Optional[int]:
    if value == "*":
        return None
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"fault key {key}={value!r} must be an int or '*'") from None


class FaultPlan:
    """A deterministic schedule of injected failures (see the module docstring).

    A plan is stateful: entries carry firing budgets, and the plan counts
    step attempts and cache reads to resolve attempt-/read-indexed
    coordinates.  Build a *fresh* plan per drain (``from_spec``) so one
    replay's consumption never leaks into the next.
    """

    def __init__(
        self, entries: Sequence[FaultEntry], spec: Optional[str] = None
    ) -> None:
        self.entries = list(entries)
        self.spec = spec
        self.step_attempts = 0
        self.cache_reads = 0

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse a ``;``-separated fault-spec string into a fresh plan.

        Each entry is ``kind@key=value,...`` (see the module docstring for
        the grammar and ``FAULT_KINDS`` for the kinds).  Raises
        ``ValueError`` on unknown kinds, unknown or malformed keys, or
        missing coordinates.
        """
        entries: List[FaultEntry] = []
        for raw in spec.split(";"):
            raw = raw.strip()
            if not raw:
                continue
            kind, sep, body = raw.partition("@")
            kind = kind.strip()
            if not sep or kind not in FAULT_KINDS:
                raise ValueError(
                    f"fault entry {raw!r} must be 'kind@key=value,...' with "
                    f"kind in {FAULT_KINDS}"
                )
            entry = FaultEntry(kind=kind)
            for pair in body.split(","):
                key, sep, value = pair.partition("=")
                key, value = key.strip(), value.strip()
                if not sep or not key:
                    raise ValueError(f"fault entry {raw!r}: bad key=value pair {pair!r}")
                if key == "req":
                    entry.req = int(value)
                elif key == "step":
                    entry.step = int(value)
                elif key == "at":
                    entry.at = float(value)
                elif key == "ms":
                    entry.ms = float(value)
                elif key == "read":
                    entry.read = _parse_int_or_star(value, key)
                elif key == "times":
                    entry.times = _parse_int_or_star(value, key)
                else:
                    raise ValueError(f"fault entry {raw!r}: unknown key {key!r}")
            cls._validate(raw, entry)
            entries.append(entry)
        return cls(entries, spec=spec)

    @staticmethod
    def _validate(raw: str, entry: FaultEntry) -> None:
        if entry.kind in ("error", "kill", "delay") and entry.step is None:
            raise ValueError(f"fault entry {raw!r}: {entry.kind} needs step=S")
        if entry.kind == "delay" and entry.ms <= 0.0:
            raise ValueError(f"fault entry {raw!r}: delay needs ms=M > 0")
        if entry.kind == "cancel":
            if entry.req is None or (entry.at is None) == (entry.step is None):
                raise ValueError(
                    f"fault entry {raw!r}: cancel needs req=R and exactly one "
                    "of at=T (simulated seconds) or step=S"
                )

    # -- firing --------------------------------------------------------------
    @staticmethod
    def _fires(entry: FaultEntry) -> bool:
        if entry.spent():
            return False
        entry.consume()
        return True

    @staticmethod
    def _matches_step(
        entry: FaultEntry, attempt: int, coords: Mapping[object, int]
    ) -> bool:
        if entry.req is not None:
            return coords.get(entry.req) == entry.step
        return entry.step == attempt

    def on_step_attempt(
        self, tags: Sequence[object], steps: Sequence[int]
    ) -> None:
        """Consulted by ``EngineSession.step`` just before the forward.

        Raises :class:`InjectedFault` (transient, retriable) or
        :class:`SessionKilled` (fatal) when an ``error``/``kill`` entry
        matches this attempt.  Every call - including retried attempts -
        advances the attempt counter, so attempt-indexed entries can target
        "the retry of step 3" deterministically.
        """
        attempt = self.step_attempts
        self.step_attempts += 1
        coords = {tag: int(step) for tag, step in zip(tags, steps)}
        for entry in self.entries:
            if entry.kind not in ("error", "kill"):
                continue
            if not self._matches_step(entry, attempt, coords):
                continue
            if not self._fires(entry):
                continue
            if entry.kind == "kill":
                raise SessionKilled(
                    f"injected session kill at attempt {attempt} ({entry.coord()})"
                )
            raise InjectedFault(
                f"injected step error at attempt {attempt} ({entry.coord()})"
            )

    def service_delay_s(
        self, tags: Sequence[object], steps: Sequence[int]
    ) -> float:
        """Simulated latency to add after the step attempt that just ran."""
        attempt = self.step_attempts - 1
        coords = {tag: int(step) for tag, step in zip(tags, steps)}
        total = 0.0
        for entry in self.entries:
            if entry.kind != "delay":
                continue
            if self._matches_step(entry, attempt, coords) and self._fires(entry):
                total += entry.ms / 1e3
        return total

    def cancellations(
        self, now: float, next_steps: Mapping[object, int]
    ) -> List[object]:
        """Request ids whose ``cancel`` entries trip at this step boundary.

        ``next_steps`` maps every unfinished request (queued requests sit at
        step 0) to its next step index; ``at=T`` entries trip at the first
        boundary with simulated time >= T, ``step=S`` entries once the
        request's next step reaches S.
        """
        tripped: List[object] = []
        for entry in self.entries:
            if entry.kind != "cancel" or entry.req not in next_steps:
                continue
            hit = (entry.at is not None and now >= entry.at) or (
                entry.step is not None and next_steps[entry.req] >= entry.step
            )
            if hit and self._fires(entry):
                tripped.append(entry.req)
        return tripped

    def corrupt_cache_read(self) -> bool:
        """Whether to scribble over the cache entry about to be read."""
        idx = self.cache_reads
        self.cache_reads += 1
        for entry in self.entries:
            if entry.kind != "corrupt":
                continue
            if (entry.read is None or entry.read == idx) and self._fires(entry):
                return True
        return False


# -- ambient plan ------------------------------------------------------------
_PLANS: List[FaultPlan] = []
_ENV_PLANS: Dict[str, FaultPlan] = {}


@contextmanager
def install(plan: Optional[FaultPlan]) -> Iterator[Optional[FaultPlan]]:
    """Make ``plan`` the ambient fault plan for the dynamic extent.

    ``install(None)`` is a no-op context, so callers can wrap
    unconditionally.
    """
    if plan is None:
        yield None
        return
    _PLANS.append(plan)
    try:
        yield plan
    finally:
        _PLANS.pop()


def active() -> Optional[FaultPlan]:
    """The innermost installed plan, else one parsed from ``$REPRO_FAULTS``.

    The env-derived plan is memoized per spec string: its firing budgets
    span the process, which is what a one-shot CLI invocation wants.
    """
    if _PLANS:
        return _PLANS[-1]
    spec = os.environ.get("REPRO_FAULTS")
    if not spec:
        return None
    plan = _ENV_PLANS.get(spec)
    if plan is None:
        plan = FaultPlan.from_spec(spec)
        _ENV_PLANS[spec] = plan
    return plan
