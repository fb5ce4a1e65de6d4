"""``repro serve`` - the paper's serving scenario as a workload driver.

The headline claim of the paper is that temporal difference processing makes
diffusion denoisers cheap enough to *serve*.  Serving means batching: a
request queue, a micro-batching window that trades a little latency for
occupancy, and a denoiser driven at ``batch_size > 1``.  This module
simulates exactly that on top of :class:`~repro.core.engine.DittoEngine`:

* :func:`generate_requests` draws a request trace with a configurable
  arrival pattern (``poisson`` / ``burst``), each request
  carrying its own noise seed;
* :func:`simulate_serving` replays the same trace against every requested
  batch capacity.  One drain drives a persistent
  :class:`~repro.core.session.EngineSession` one denoiser step at a time;
  rows leave at the step they finish, each carrying its own timestep and
  sampler history (so every sampler serves, PLMS and DPM-Solver++
  included).  Service times are *measured* wall-clock per step, so
  throughput and latency percentiles reflect the numpy substrate honestly.

The two schedulers differ only in the drain's admission rule:

* ``continuous`` - iteration-level (Orca-style) scheduling: arrived
  requests are admitted at every step boundary while a row is free, so the
  engine never drains while requests are queued;
* ``fixed`` - the lockstep micro-batcher: requests are admitted only into
  an empty session, once the batching window after the first waiting
  request closes (or the moment the batch fills), so a batch enters and
  leaves together.

Stacking requests is only sound because of the batch-invariance contract:
served runs execute every quantized layer dense, holding no temporal state,
so a batch-N run is bit-exact with N independent batch-1 runs (pinned by
``tests/test_batched_state.py`` and optionally re-checked per serve via
``verify_invariance``: every served sample against its batch-1 reference,
which executes temporal - so every check also tests the zero-state
difference algebra; instrumented runs record temporal and execute dense).  Stochastic samplers (ddpm, ddim eta>0)
join the contract through per-request ``SeedSequence.spawn`` noise streams
(:meth:`Request.sampler_rng`).  The MAC/BOPs savings come from one
:class:`~repro.core.plan.ExecutionPlan` per engine, loaded from the cache
or derived once by one instrumented run; the timed runs skip
instrumentation so stats scans do not pollute the latency numbers.

Both schedulers carry the serving tier's fault-tolerance contract
(:mod:`repro.runtime.faults`):

* **deadlines & cancellation** - per-request ``deadline_s`` (assigned per
  SLO class) and a :class:`~repro.runtime.faults.CancelToken`, both checked
  at step boundaries; cancelled/expired rows are evicted mid-flight, which
  is bit-exact for the survivors because dense rows hold no state;
* **retry with exact replay** - a step that raises is retried with capped
  exponential backoff (simulated clock).  Safe because a failed step is an
  exact no-op: a dense step holds no layer state and the rng streams are
  rewound, so the retry replays the step bit-exactly;
* **crash recovery** - a killed session (or one that exhausted its
  retries) is snapshotted, the engine rebuilt (warm from the
  content-addressed cache via :meth:`EngineRunner.build_engine
  <repro.runtime.runner.EngineRunner.build_engine>`), and every in-flight
  row re-admitted at its recorded step with its recorded sampler history
  and its rng stream rebuilt from the request's seed and fast-forwarded
  past the recorded draws.  Recovered
  outputs are bit-exact with an uninterrupted run - ``--verify`` proves it;
* **accounting** - every request ends as exactly one of ``completed``,
  ``cancelled``, ``expired``, or ``failed``, reported per SLO class (p99
  vs target, goodput, abandonment) alongside retry/recovery counts.
"""

from __future__ import annotations

import math
import os
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.config import EngineConfig
from ..core.engine import DittoEngine
from ..core.modes import ExecutionMode
from ..core.plan import compare_plans
from . import faults
from .cache import ResultCache, default_cache_dir
from .hashing import plan_key

__all__ = [
    "ARRIVAL_PATTERNS",
    "SCHEDULERS",
    "REQUEST_OUTCOMES",
    "Request",
    "ServedRequest",
    "SLOClass",
    "SLOClassReport",
    "BatchSizeReport",
    "ServingReport",
    "parse_slo_spec",
    "assign_slo_classes",
    "generate_requests",
    "simulate_serving",
]

ARRIVAL_PATTERNS = ("poisson", "burst")
SCHEDULERS = ("fixed", "continuous")
REQUEST_OUTCOMES = ("completed", "cancelled", "expired", "failed")

# The drain's failure policy.  A failed step is retried up to MAX_RETRIES
# times, the n-th retry after min(RETRY_BACKOFF_S * 2**(n-1),
# RETRY_BACKOFF_CAP_S) simulated seconds; a session that is killed or out
# of retries is rebuilt at most MAX_RECOVERIES times per drain, after which
# its in-flight rows fail.
MAX_RETRIES = 3
RETRY_BACKOFF_S = 0.05
RETRY_BACKOFF_CAP_S = 2.0
MAX_RECOVERIES = 8


@dataclass(frozen=True)
class SLOClass:
    """One service class: a latency target and a traffic-mix weight.

    ``deadline_s`` is the class's completion deadline measured from arrival
    (``None`` = no deadline, e.g. batch/offline traffic); ``weight`` sets
    the class's share of the request trace when several classes are mixed
    (:func:`assign_slo_classes`).
    """

    name: str
    deadline_s: Optional[float] = None
    weight: float = 1.0


DEFAULT_SLO_CLASS = SLOClass("default")


def parse_slo_spec(spec: str) -> List[SLOClass]:
    """Parse ``"name:deadline[:weight],..."`` into SLO classes.

    An empty/``none``/``inf`` deadline means no deadline.  Example:
    ``"interactive:0.5:2,batch::1"`` - two interactive requests for every
    batch request, only the former with a 500 ms target.
    """
    classes: List[SLOClass] = []
    for raw in spec.split(","):
        raw = raw.strip()
        if not raw:
            continue
        parts = raw.split(":")
        if not 1 <= len(parts) <= 3 or not parts[0]:
            raise ValueError(
                f"bad SLO class {raw!r}; expected 'name:deadline[:weight]'"
            )
        deadline: Optional[float] = None
        if len(parts) >= 2 and parts[1] not in ("", "none", "inf"):
            deadline = float(parts[1])
            if deadline <= 0:
                raise ValueError(f"SLO class {raw!r}: deadline must be > 0")
        weight = float(parts[2]) if len(parts) == 3 else 1.0
        if weight <= 0:
            raise ValueError(f"SLO class {raw!r}: weight must be > 0")
        classes.append(SLOClass(parts[0], deadline, weight))
    if not classes:
        raise ValueError(f"SLO spec {spec!r} defines no classes")
    if len({c.name for c in classes}) != len(classes):
        raise ValueError(f"SLO spec {spec!r} repeats a class name")
    return classes


def assign_slo_classes(
    num_requests: int, classes: Sequence[SLOClass]
) -> List[SLOClass]:
    """Deterministic weight-proportional class assignment (D'Hondt).

    Request ``i`` always lands in the same class for a given spec - the
    assignment is part of the trace, so fault coordinates addressed by
    request id stay meaningful across replays.  Ties break toward the
    earlier class.
    """
    counts = [0] * len(classes)
    assigned: List[SLOClass] = []
    for _ in range(num_requests):
        best = max(
            range(len(classes)),
            key=lambda j: (classes[j].weight / (counts[j] + 1), -j),
        )
        counts[best] += 1
        assigned.append(classes[best])
    return assigned


@dataclass(frozen=True)
class Request:
    """One generation request: identity, arrival time, private noise seed."""

    req_id: int
    arrival_s: float
    seed: Tuple[int, int]
    deadline_s: Optional[float] = None
    slo_class: str = DEFAULT_SLO_CLASS.name

    def draw_noise(self, sample_shape: Tuple[int, ...]) -> np.ndarray:
        """The request's initial noise, independent of any batching."""
        rng = np.random.default_rng(self.seed)
        return rng.standard_normal((1,) + tuple(sample_shape))

    def sampler_rng(self) -> np.random.Generator:
        """The request's private sampler noise stream.

        Built as the ``req_id``-th spawned child of
        ``SeedSequence(trace_seed)`` (``SeedSequence(s).spawn(n)[i] ==
        SeedSequence(s, spawn_key=(i,))``), so every call returns a fresh
        generator positioned at the start of the *same* stream - the batched
        replay and the batch-1 reference draw identical noise, which is what
        extends the bit-exact serving contract to stochastic samplers.
        """
        root, idx = self.seed
        return np.random.default_rng(
            np.random.SeedSequence(root, spawn_key=(idx,))
        )


@dataclass(frozen=True)
class ServedRequest:
    """Terminal record of one request under one batching configuration.

    ``outcome`` is one of :data:`REQUEST_OUTCOMES`; for non-``completed``
    requests ``finish_s`` is the step boundary at which the outcome was
    decided and ``batch_fill`` is 0 (they never contributed a finished
    sample).
    """

    req_id: int
    arrival_s: float
    launch_s: float
    finish_s: float
    batch_fill: int
    outcome: str = "completed"
    slo_class: str = DEFAULT_SLO_CLASS.name
    deadline_s: Optional[float] = None

    @property
    def latency_s(self) -> float:
        """Completion minus arrival: queueing delay and batching window included."""
        return self.finish_s - self.arrival_s

    @property
    def on_time(self) -> bool:
        """Completed within the SLO deadline (``True`` when no deadline applies)."""
        return self.outcome == "completed" and (
            self.deadline_s is None or self.latency_s <= self.deadline_s
        )


@dataclass
class SLOClassReport:
    """Per-class accounting: every request is exactly one outcome."""

    name: str
    deadline_s: Optional[float]
    total: int
    completed: int
    on_time: int
    expired: int
    cancelled: int
    failed: int
    latency_p99_s: float  # NaN when the class completed nothing

    @property
    def goodput(self) -> float:
        """Fraction of the class's requests completed within the target."""
        return self.on_time / self.total if self.total else 0.0

    @property
    def abandonment(self) -> float:
        """Fraction evicted before completing (cancelled or expired)."""
        return (self.cancelled + self.expired) / self.total if self.total else 0.0

    def to_json(self) -> Dict[str, object]:
        """Machine-readable rendering for the serve report JSON."""
        return {
            "name": self.name,
            "deadline_s": self.deadline_s,
            "total": self.total,
            "completed": self.completed,
            "on_time": self.on_time,
            "expired": self.expired,
            "cancelled": self.cancelled,
            "failed": self.failed,
            "latency_p99_s": (
                None
                if math.isnan(self.latency_p99_s)
                else round(self.latency_p99_s, 4)
            ),
            "goodput": round(self.goodput, 4),
            "abandonment": round(self.abandonment, 4),
        }


def _slo_class_reports(
    served: Sequence[ServedRequest], classes: Optional[Sequence[SLOClass]]
) -> List[SLOClassReport]:
    """Group terminal records by class; classes keep spec order."""
    by_name: Dict[str, List[ServedRequest]] = {}
    order: List[str] = []
    deadlines: Dict[str, Optional[float]] = {}
    for cls in classes or ():
        by_name[cls.name] = []
        order.append(cls.name)
        deadlines[cls.name] = cls.deadline_s
    for record in served:
        if record.slo_class not in by_name:
            by_name[record.slo_class] = []
            order.append(record.slo_class)
            deadlines[record.slo_class] = record.deadline_s
        by_name[record.slo_class].append(record)
    reports = []
    for name in order:
        members = by_name[name]
        done = [r.latency_s for r in members if r.outcome == "completed"]
        reports.append(
            SLOClassReport(
                name=name,
                deadline_s=deadlines[name],
                total=len(members),
                completed=len(done),
                on_time=sum(r.on_time for r in members),
                expired=sum(r.outcome == "expired" for r in members),
                cancelled=sum(r.outcome == "cancelled" for r in members),
                failed=sum(r.outcome == "failed" for r in members),
                latency_p99_s=(
                    float(np.percentile(done, 99)) if done else float("nan")
                ),
            )
        )
    return reports


@dataclass
class BatchSizeReport:
    """Queue replay results for one batch capacity.

    ``num_batches`` counts denoiser steps and ``mean_service_s`` their mean
    measured wall-clock duration; ``mean_batch_fill`` is the mean in-flight
    rows per step and ``utilization`` that fill over the capacity.  Under
    the fixed scheduler every lockstep batch runs the same number of steps,
    so the per-step fill equals the mean launched-batch fill.
    """

    batch_size: int
    num_requests: int
    num_batches: int
    mean_batch_fill: float
    makespan_s: float
    throughput_rps: float
    latency_p50_s: float
    latency_p90_s: float
    latency_p99_s: float
    mean_service_s: float
    temporal_relative_bops: float
    mac_savings_pct: float
    utilization: float = 0.0
    served: List[ServedRequest] = field(default_factory=list)
    # Fault-tolerance accounting: every request's terminal outcome, the
    # per-class SLO rollup, and how eventful the replay was.
    outcomes: Dict[int, str] = field(default_factory=dict)
    slo: List[SLOClassReport] = field(default_factory=list)
    retries: int = 0
    recoveries: int = 0

    def outcome_counts(self) -> Dict[str, int]:
        """Requests per terminal outcome (all ``REQUEST_OUTCOMES`` keys present)."""
        counts = {name: 0 for name in REQUEST_OUTCOMES}
        for outcome in self.outcomes.values():
            counts[outcome] += 1
        return counts

    def to_json(self) -> Dict[str, object]:
        """Machine-readable rendering for the serve report JSON (NaN -> null)."""
        def _num(value: float) -> Optional[float]:
            return None if math.isnan(value) else round(value, 4)

        return {
            "batch_size": self.batch_size,
            "num_requests": self.num_requests,
            "num_batches": self.num_batches,
            "mean_batch_fill": round(self.mean_batch_fill, 3),
            "utilization": round(self.utilization, 4),
            "makespan_s": round(self.makespan_s, 4),
            "throughput_rps": round(self.throughput_rps, 3),
            "latency_p50_s": _num(self.latency_p50_s),
            "latency_p90_s": _num(self.latency_p90_s),
            "latency_p99_s": _num(self.latency_p99_s),
            "mean_service_s": round(self.mean_service_s, 4),
            "temporal_relative_bops": round(self.temporal_relative_bops, 4),
            "mac_savings_pct": round(self.mac_savings_pct, 2),
            "outcomes": {str(rid): oc for rid, oc in sorted(self.outcomes.items())},
            "outcome_counts": self.outcome_counts(),
            "retries": self.retries,
            "recoveries": self.recoveries,
            "slo": [cls.to_json() for cls in self.slo],
        }


@dataclass
class ServingReport:
    """Per-batch-size serving metrics for one benchmark."""

    benchmark: str
    num_steps: int
    pattern: str
    rate_rps: Optional[float]  # None for burst arrivals, which have no rate
    window_s: float
    num_requests: int
    guidance_scale: Optional[float]
    invariance_checked: bool
    # Where the serve's ExecutionPlan came from ("derived" | "cache"), its
    # content digest, and the drift-check result ({"checked": bool,
    # "matches": bool, "mismatches": [...]}).
    plan_source: str
    plan_digest: str
    plan_drift: Dict[str, object]
    scheduler: str = "fixed"
    sampler: Optional[str] = None
    fault_spec: Optional[str] = None
    slo_spec: Optional[str] = None
    # Request ids --verify actually re-ran batch-1 and matched bit-exactly
    # (the completed requests of the largest-capacity replay).
    verified_requests: List[int] = field(default_factory=list)
    per_batch: Dict[int, BatchSizeReport] = field(default_factory=dict)

    def rows(self) -> List[List[object]]:
        """Summary-table rows: one per batch size (see :meth:`summary`)."""
        return [
            [
                report.batch_size,
                report.throughput_rps,
                report.latency_p50_s,
                report.latency_p99_s,
                report.mean_batch_fill,
                report.mac_savings_pct,
            ]
            for report in self.per_batch.values()
        ]

    def utilization_lines(self) -> List[str]:
        """The utilization section (mean occupied rows per step)."""
        lines = [f"utilization ({self.scheduler} scheduler, occupied rows / capacity):"]
        for size, report in self.per_batch.items():
            lines.append(
                f"  capacity {size}: {100.0 * report.utilization:5.1f}% "
                f"(mean {report.mean_batch_fill:.2f} rows over "
                f"{report.num_batches} steps)"
            )
        return lines

    def slo_lines(self) -> List[str]:
        """Per-class SLO accounting (only sizes that tracked outcomes)."""
        lines: List[str] = []
        for size, report in self.per_batch.items():
            if not report.slo:
                continue
            if not lines:
                lines.append("SLO accounting (p99 vs target, goodput, abandonment):")
            for cls in report.slo:
                target = (
                    f"{cls.deadline_s:g}s" if cls.deadline_s is not None else "none"
                )
                p99 = (
                    "n/a"
                    if math.isnan(cls.latency_p99_s)
                    else f"{cls.latency_p99_s:.3f}s"
                )
                lines.append(
                    f"  capacity {size}, class {cls.name}: {cls.total} req -> "
                    f"{cls.completed} completed ({cls.on_time} on-time), "
                    f"{cls.expired} expired, {cls.cancelled} cancelled, "
                    f"{cls.failed} failed; p99 {p99} vs target {target}; "
                    f"goodput {100.0 * cls.goodput:.1f}%, "
                    f"abandonment {100.0 * cls.abandonment:.1f}%"
                )
            if report.retries or report.recoveries:
                lines.append(
                    f"  capacity {size}: {report.retries} retried step(s), "
                    f"{report.recoveries} session recovery(ies)"
                )
        return lines

    def summary(self) -> str:
        """The human serve report: headline, per-batch-size table, SLO section."""
        from ..analysis import format_table

        head = (
            f"{self.benchmark}: {self.num_requests} requests, "
            f"{self.pattern} arrivals"
            + ("" if self.rate_rps is None else f" @ {self.rate_rps:g} req/s")
            + ", "
            f"window {self.window_s * 1e3:g} ms, {self.num_steps} steps, "
            f"{self.scheduler} scheduler"
            + (f" [{self.sampler}]" if self.sampler else "")
            + (
                f", CFG x{self.guidance_scale:g}"
                if self.guidance_scale is not None
                else ""
            )
        )
        if self.fault_spec:
            head += f"\nfault plan: {self.fault_spec}"
        head += (
            f"\nplan-replay mode: ExecutionPlan {self.plan_source} "
            f"[{self.plan_digest[:12]}], runs instrumentation-free"
        )
        drift = self.plan_drift
        if not drift["checked"]:
            pass  # freshly derived: nothing older to drift from
        elif drift["matches"]:
            head += "; drift check: re-derived plan matches bit-exactly"
        else:
            mismatches = drift["mismatches"]
            head += (
                f"\nWARNING plan drift: cached plan diverges from "
                f"re-derivation ({len(mismatches)} difference(s): "
                + "; ".join(str(m) for m in mismatches[:3])
                + ")"
            )
        table = format_table(
            ["batch", "req/s", "p50 s", "p99 s", "fill", "MAC sav%"],
            self.rows(),
        )
        util = "\n".join(self.utilization_lines())
        slo = "\n".join(self.slo_lines())
        if not self.invariance_checked:
            tail = ""
        elif len(self.verified_requests) == self.num_requests:
            tail = "every request verified bit-exact against its batch-1 reference"
        else:
            tail = (
                f"{len(self.verified_requests)} completed request(s) "
                "verified bit-exact against their batch-1 references: "
                f"{self.verified_requests}"
            )
        return "\n".join(part for part in (head, table, util, slo, tail) if part)

    def to_json(self) -> Dict[str, object]:
        """Machine-readable rendering of the whole report (``--out`` payload)."""
        return {
            "benchmark": self.benchmark,
            "num_steps": self.num_steps,
            "pattern": self.pattern,
            "rate_rps": self.rate_rps,
            "window_s": self.window_s,
            "num_requests": self.num_requests,
            "guidance_scale": self.guidance_scale,
            "invariance_checked": self.invariance_checked,
            "scheduler": self.scheduler,
            "sampler": self.sampler,
            "fault_spec": self.fault_spec,
            "slo_spec": self.slo_spec,
            "verified_requests": list(self.verified_requests),
            "plan_source": self.plan_source,
            "plan_digest": self.plan_digest,
            "plan_drift": self.plan_drift,
            "per_batch": {
                str(size): report.to_json()
                for size, report in self.per_batch.items()
            },
        }


def generate_requests(
    num_requests: int,
    rate_rps: float = 4.0,
    pattern: str = "poisson",
    seed: int = 0,
    slo: Optional[Sequence[SLOClass]] = None,
) -> List[Request]:
    """Draw a request trace with the given arrival pattern.

    ``poisson`` draws exponential inter-arrival gaps at ``rate_rps``;
    ``burst`` drops every request at t=0 (the worst case for the
    micro-batcher).
    Each request gets a private, reproducible noise seed derived from
    ``(seed, req_id)``, so its sample is identical no matter which
    micro-batch it lands in.  ``slo`` assigns each request a service class
    (and with it a deadline) weight-proportionally via
    :func:`assign_slo_classes`.
    """
    if num_requests < 1:
        raise ValueError("need at least one request")
    if pattern not in ARRIVAL_PATTERNS:
        raise ValueError(
            f"unknown arrival pattern {pattern!r}; choose from {ARRIVAL_PATTERNS}"
        )
    if pattern == "poisson":
        if rate_rps <= 0.0:
            raise ValueError("rate_rps must be positive")
        rng = np.random.default_rng(seed)
        gaps = rng.exponential(1.0 / rate_rps, size=num_requests)
        arrivals = np.cumsum(gaps) - gaps[0]  # first request arrives at t=0
    else:  # burst
        arrivals = np.zeros(num_requests)
    classes = (
        assign_slo_classes(num_requests, slo)
        if slo
        else [DEFAULT_SLO_CLASS] * num_requests
    )
    return [
        Request(
            req_id=i,
            arrival_s=float(arrivals[i]),
            seed=(seed, i),
            deadline_s=classes[i].deadline_s,
            slo_class=classes[i].name,
        )
        for i in range(num_requests)
    ]


@dataclass
class _DrainStats:
    """Fault-tolerance counters for one drain."""

    retries: int = 0
    recoveries: int = 0


def _drain(
    engine: DittoEngine,
    requests: Sequence[Request],
    noises: Sequence[np.ndarray],
    capacity: int,
    scheduler: str,
    window_s: float,
    fault_plan: Optional[faults.FaultPlan] = None,
    cancel_tokens: Optional[Dict[int, faults.CancelToken]] = None,
    rebuild: Optional[Callable[[], DittoEngine]] = None,
) -> Tuple[
    List[ServedRequest],
    List[float],
    List[int],
    Dict[int, np.ndarray],
    _DrainStats,
    DittoEngine,
]:
    """Replay the request trace through a persistent session, step by step.

    Arrival times live on a simulated clock; service times are measured
    wall-clock per :meth:`~repro.core.session.EngineSession.step`.  A
    persistent :class:`~repro.core.session.EngineSession` advances one
    denoiser step at a time, and completed rows leave the batch the step
    they finish.  The ``scheduler`` is the admission rule, and nothing else:

    * ``continuous`` admits arrived requests at every step boundary while
      ``occupancy < capacity``, so a request waits at most one step and the
      engine never drains while work is queued;
    * ``fixed`` admits only into an empty session.  The batch opens when a
      request waits, admits arrivals for up to ``window_s`` (closing early
      once ``capacity`` requests arrived), and launches them together.  A
      real server cannot know no further request is coming, so a batch
      that does not fill waits out the window.

    Each step boundary runs the fault-tolerance policy, in order: trip
    plan-scheduled cancellations, evict cancelled rows, evict
    deadline-expired rows, record cancelled/expired queued requests at
    admission, admit.  A step that raises is retried up to
    :data:`MAX_RETRIES` times with capped exponential backoff on the
    simulated clock - exact replay is guaranteed by the session (stateless
    dense step + rewound rng streams).  A killed session (or exhausted
    retries) triggers crash recovery: snapshot the rows, rebuild the engine
    via ``rebuild``, re-admit every row at its recorded step with its
    stream fast-forwarded past its recorded draws.  Without a ``rebuild``,
    or once :data:`MAX_RECOVERIES` recoveries are spent, the in-flight rows
    are recorded ``failed`` and the remaining queue continues on a fresh
    session.

    Returns the terminal records (one per request), per-step wall-clock
    times, per-step occupancies, each completed request's sample (for
    verification), the retry/recovery counters, and the engine in use at
    the end (recovery may have rebuilt it).
    """
    served: List[ServedRequest] = []
    step_times: List[float] = []
    occupancies: List[int] = []
    samples: Dict[int, np.ndarray] = {}
    launch_at: Dict[int, float] = {}
    streams: Dict[int, Optional[faults.ReplayableRNG]] = {}
    stats = _DrainStats()
    tokens = cancel_tokens if cancel_tokens is not None else {}
    needs_rng = bool(getattr(engine.pipeline.sampler, "needs_rng", False))
    sample_shape = tuple(engine.pipeline.sample_shape)
    arrivals = [req.arrival_s for req in requests]
    now = 0.0
    i = 0
    n = len(requests)

    def _finish(idx: int, outcome: str, launch: float, fill: int) -> None:
        req = requests[idx]
        served.append(
            ServedRequest(
                req_id=req.req_id,
                arrival_s=req.arrival_s,
                launch_s=launch,
                finish_s=now,
                batch_fill=fill,
                outcome=outcome,
                slo_class=req.slo_class,
                deadline_s=req.deadline_s,
            )
        )

    def _retire(tag: int, outcome: str) -> None:
        """Evict an in-flight row and record its terminal outcome."""
        session.evict(tag)
        streams.pop(tag, None)
        _finish(tag, outcome, launch_at[tag], 0)

    def _recover_or_fail(dead, reason: str):
        """Rebuild + re-admit from snapshots, or fail the in-flight rows.

        Bit-exact by construction: a rebuilt engine is deterministic (same
        spec, steps, calibration seed), a re-admitted row resumes at its
        snapshot latent and sampler history with nothing else lost (dense
        rows hold no layer state), and its rng stream - rebuilt from the request's
        ``SeedSequence`` seed - is fast-forwarded past exactly the draws
        the dead session spent (streams were rewound on failure, so the
        count excludes the failed step).
        """
        nonlocal engine
        inflight = dead.snapshot()
        draws = {tag: streams[tag].draws if streams.get(tag) else 0 for tag, *_ in inflight}
        dead.close()  # resets the shared layer state; safe when unhealthy
        if rebuild is not None and stats.recoveries < MAX_RECOVERIES:
            stats.recoveries += 1
            engine = rebuild()
            fresh = engine.open_session(capacity=capacity)
            for tag, step_k, x_k, history in inflight:
                rng = None
                if needs_rng:
                    rng = faults.ReplayableRNG(requests[tag].sampler_rng())
                    rng.fast_forward(draws[tag], (1,) + sample_shape)
                fresh.admit(x_k, rng=rng, tag=tag, step=step_k, history=history)
                streams[tag] = rng
            return fresh
        for tag, *_ in inflight:
            streams.pop(tag, None)
            _finish(tag, "failed", launch_at[tag], 0)
        return engine.open_session(capacity=capacity)

    session = engine.open_session(capacity=capacity)
    try:
        while i < n or session.occupancy:
            # -- the admission rule: requests[i:stop] may join at `now` -----
            if not session.occupancy:
                now = max(now, arrivals[i])  # idle server: jump to next arrival
            if scheduler == "continuous":
                stop = bisect_right(arrivals, now, lo=i)
            elif session.occupancy:
                stop = i  # lockstep: the running batch admits no one
            else:
                close = now + window_s
                stop = min(bisect_right(arrivals, close, lo=i), i + capacity)
                # Launch the moment the filling request arrives (or at once,
                # if the backlog already covers the batch); else at the close.
                now = max(now, arrivals[stop - 1]) if stop - i == capacity else close
            # -- step-boundary policy: cancellations, then deadlines --------
            if fault_plan is not None and tokens:
                next_steps: Dict[int, int] = {
                    requests[j].req_id: 0 for j in range(i, n)
                }
                for tag, step_k in zip(session.tags, session.row_steps):
                    next_steps[tag] = step_k
                for rid in fault_plan.cancellations(now, next_steps):
                    token = tokens.get(rid)
                    if token is not None:
                        token.cancel(f"fault plan cancel at t={now:.3f}s")
            for tag in list(session.tags):
                token = tokens.get(tag)
                if token is not None and token.cancelled:
                    _retire(tag, "cancelled")
                    continue
                req = requests[tag]
                if req.deadline_s is not None and now > req.arrival_s + req.deadline_s:
                    _retire(tag, "expired")
            # -- admissions --------------------------------------------------
            while i < stop and session.occupancy < capacity:
                req = requests[i]
                token = tokens.get(req.req_id)
                if token is not None and token.cancelled:
                    _finish(i, "cancelled", now, 0)
                elif req.deadline_s is not None and now > req.arrival_s + req.deadline_s:
                    _finish(i, "expired", now, 0)
                else:
                    rng = (
                        faults.ReplayableRNG(req.sampler_rng())
                        if needs_rng
                        else None
                    )
                    session.admit(noises[i], rng=rng, tag=i)
                    streams[i] = rng
                    launch_at[i] = now
                i += 1
            if not session.occupancy:
                continue  # nothing admitted; the idle jump advances the clock
            # -- one step, with retries and crash recovery -------------------
            fill = session.occupancy
            tags_before = list(session.tags)
            steps_before = list(session.row_steps)
            attempt = 0
            stepped = False
            while not stepped:
                t0 = time.perf_counter()
                try:
                    finished = session.step()
                    dt = time.perf_counter() - t0
                    stepped = True
                except faults.SessionKilled as exc:
                    # The injected crash.  step() marks the session
                    # unhealthy before re-raising; keep that invariant even
                    # for a kill raised by foreign code.
                    now += time.perf_counter() - t0
                    if session.healthy:
                        session.mark_unhealthy(str(exc) or "session killed")
                    session = _recover_or_fail(session, str(exc))
                    break
                except Exception as exc:
                    # Transient step failure: the session rewound its rng
                    # streams and kept its latents, so a retry is an exact
                    # replay.  Backoff lands on the simulated clock - it
                    # can trip deadlines but costs no wall time.
                    now += time.perf_counter() - t0
                    attempt += 1
                    if attempt > MAX_RETRIES:
                        session.mark_unhealthy(
                            f"step failed {attempt} times: {exc}"
                        )
                        session = _recover_or_fail(session, str(exc))
                        break
                    stats.retries += 1
                    now += min(
                        RETRY_BACKOFF_S * 2.0 ** (attempt - 1),
                        RETRY_BACKOFF_CAP_S,
                    )
            if not stepped:
                continue  # recovered (rows re-admitted) or failed (rows retired)
            step_times.append(dt)
            occupancies.append(fill)
            now += dt
            if fault_plan is not None:
                # Injected service latency lands after the measured step,
                # so the next boundary's deadline checks see it.
                now += fault_plan.service_delay_s(tags_before, steps_before)
            for tag, sample in finished:
                samples[tag] = sample
                streams.pop(tag, None)
                _finish(tag, "completed", launch_at[tag], fill)
    finally:
        session.close()
    return served, step_times, occupancies, samples, stats, engine


def simulate_serving(
    spec_or_name,
    batch_sizes: Iterable[int] = (1, 2, 4, 8),
    num_requests: int = 16,
    rate_rps: float = 4.0,
    pattern: str = "poisson",
    window_s: float = 0.25,
    seed: int = 0,
    verify_invariance: bool = False,
    engine: Optional[DittoEngine] = None,
    scheduler: str = "fixed",
    slo: Optional[str] = None,
    fault_spec: Optional[str] = None,
    use_plan: bool = True,
    plan_cache_dir=None,
    **axes,
) -> ServingReport:
    """Replay one request trace at every batch size and report the numbers.

    The engine is built once (quantization + calibration are
    batch-independent) and reused across batch sizes; ``batch_sizes`` sweep
    the persistent session's *capacity*.  ``scheduler`` picks the admission
    rule: ``"fixed"`` launches lockstep micro-batches after a ``window_s``
    batching window, ``"continuous"`` admits at every step boundary.

    The engine's identity is one :class:`~repro.core.config.EngineConfig`.
    A prebuilt ``engine`` supplies it (``engine.config``), and any axis
    passed explicitly in ``axes`` that differs from it raises.  Otherwise
    the config resolves from the spec and ``axes``, keyed by config field
    name (e.g. ``sampler="ddpm"`` serves stochastic ddpm).  The plan key,
    the recovery rebuild and the report's steps, guidance and sampler all
    read that config.

    ``verify_invariance=True`` re-runs requests individually and demands
    bit-exact agreement with the batched replay - the temporal-state
    contract checked in production rather than only in tests.  *Every
    completed* request of the largest-capacity replay (arbitrary
    admission/eviction/recovery interleavings included) is checked against
    its seeded batch-1 reference, and so is one stacked batch of the first
    requests; the report records which request ids were verified.

    Fault tolerance (both schedulers): ``slo`` (a spec string for
    :func:`parse_slo_spec`; ``"default:D"`` gives every request the
    deadline ``D``) assigns per-class deadlines.  ``fault_spec`` (default:
    ``$REPRO_FAULTS``) injects deterministic failures - a *fresh*
    :class:`~repro.runtime.faults.FaultPlan` is built per batch size so
    firing budgets never leak across the sweep.  Retries and crash
    recovery follow the module's failure policy (:data:`MAX_RETRIES`,
    :data:`MAX_RECOVERIES`); recovery rebuilds a spec-built engine warm
    from the content-addressed engine-object cache
    (:meth:`~repro.runtime.runner.EngineRunner.build_engine`) and reopens a
    prebuilt one.

    Every serve is plan-then-execute (see ``docs/plan-cache.md``): the
    bitwidth/Defo numbers of every batch size come from one
    :class:`~repro.core.plan.ExecutionPlan` loaded from the
    content-addressed cache (``plan_cache_dir``, default
    :func:`~repro.runtime.cache.default_cache_dir`) or derived once on a
    miss by one instrumented run.  A cache-hit plan is
    drift-checked: the derivation run is re-instrumented once and its plan
    must match the cached artifact bit-exactly; divergence is reported in
    ``ServingReport.plan_drift``, never raised.  ``use_plan`` accepts only
    ``True`` (the one mode) and will go.
    """
    if isinstance(spec_or_name, str):
        from ..workloads import get_benchmark

        spec = get_benchmark(spec_or_name)
    else:
        spec = spec_or_name
    from .runner import normalize_batch_sizes

    if scheduler not in SCHEDULERS:
        raise ValueError(
            f"unknown scheduler {scheduler!r}; choose from {SCHEDULERS}"
        )
    if window_s < 0:
        # A window closing before the first waiting request arrived would
        # admit no one, and the fixed drain would spin on that arrival.
        raise ValueError(f"batching window must be >= 0 s, got {window_s:g}")
    if not use_plan:
        raise ValueError(
            "every serve reads its numbers from an ExecutionPlan; "
            f"use_plan={use_plan!r} names a serving mode that no longer exists"
        )
    prebuilt = engine is not None
    config = (
        _prebuilt_config(engine, spec, axes)
        if prebuilt
        else EngineConfig.resolve(spec, **axes)
    )
    if fault_spec is None:
        fault_spec = os.environ.get("REPRO_FAULTS") or None
    slo_classes = parse_slo_spec(slo) if slo is not None else None
    sizes = normalize_batch_sizes(batch_sizes)
    if verify_invariance and min(sizes[-1], num_requests) < 2:
        # --verify must never silently verify nothing; refuse before any
        # engine is built or plan derived.
        raise ValueError(
            "verify_invariance needs a multi-request batch: got "
            f"max batch size {sizes[-1]} and {num_requests} request(s)"
        )
    if prebuilt:
        # Reopening the same object is a valid rebuild: EngineSession
        # resets every layer's state on open, and an injected kill corrupts
        # no engine-side state in this simulation.
        def rebuild(engine=engine):
            return engine
    else:
        engine = DittoEngine.from_benchmark(spec, **config.axes())

        def rebuild():
            # Warm rebuild: the engine-object cache is content-addressed
            # (source fingerprint + spec + config), so recovery reloads the
            # deterministic build instead of recalibrating.
            from .runner import EngineRunner

            return EngineRunner().build_engine(spec, **config.axes())
    plan_cache = ResultCache(plan_cache_dir or default_cache_dir())
    key = plan_key(
        spec, derivation_seed=seed, derivation_batch_size=1, **config.axes()
    )
    execution_plan = plan_cache.get(key)
    if execution_plan is None:
        # Cache miss: derive once (one instrumented run) and persist.
        execution_plan = engine.derive_plan(seed=seed, batch_size=1)
        plan_cache.put(key, execution_plan)
        plan_source = "derived"
        plan_drift = {"checked": False, "matches": True, "mismatches": []}
    else:
        plan_source = "cache"
        # Drift check: replay the exact derivation run (deterministic, so
        # the digests must match bit-exactly) and report - never raise -
        # divergence between the cached artifact and what the current
        # engine actually computes.
        fresh = engine.derive_plan(
            seed=execution_plan.derivation_seed,
            batch_size=execution_plan.derivation_batch_size,
            hardware=execution_plan.hardware,
        )
        mismatches = compare_plans(execution_plan, fresh)
        plan_drift = {
            "checked": True,
            "matches": not mismatches,
            "mismatches": mismatches,
        }
    requests = generate_requests(
        num_requests, rate_rps, pattern, seed, slo=slo_classes
    )
    noises = [req.draw_noise(spec.sample_shape) for req in requests]

    report = ServingReport(
        benchmark=spec.name,
        num_steps=config.num_steps,
        pattern=pattern,
        # Burst arrivals all land at t=0: the rate shapes nothing.
        rate_rps=None if pattern == "burst" else rate_rps,
        window_s=window_s,
        num_requests=num_requests,
        guidance_scale=config.guidance_scale,
        invariance_checked=False,
        scheduler=scheduler,
        sampler=config.sampler,
        fault_spec=fault_spec,
        slo_spec=slo,
        plan_source=plan_source,
        plan_digest=execution_plan.digest,
        plan_drift=plan_drift,
    )
    track_outcomes = bool(slo_classes or fault_spec)
    for size in sizes:
        # One batch size's scratch working set at a time: the pools key
        # buffers by shape and never evict, so sweeping sizes 1..8 in one
        # thread would otherwise hold the union of all their buffer sets.
        from ..core.bitwidth import clear_classification_pool
        from ..scratch import clear_scratch

        clear_scratch()
        clear_classification_pool()
        # A fresh plan per batch size: entry firing budgets must not leak
        # from one replay of the trace into the next.
        plan = faults.FaultPlan.from_spec(fault_spec) if fault_spec else None
        tokens = {req.req_id: faults.CancelToken() for req in requests}
        with faults.install(plan):
            served, step_times, occupancies, samples, stats, engine = _drain(
                engine,
                requests,
                noises,
                size,
                scheduler=scheduler,
                window_s=window_s,
                fault_plan=plan,
                cancel_tokens=tokens,
                rebuild=rebuild,
            )
        mean_fill = float(np.mean(occupancies)) if occupancies else 0.0
        completed = [s for s in served if s.outcome == "completed"]
        latencies = np.array([s.latency_s for s in completed])
        first_arrival = min(req.arrival_s for req in requests)
        makespan = max(s.finish_s for s in served) - first_arrival

        def _pct(q: float) -> float:
            return float(np.percentile(latencies, q)) if completed else float("nan")

        report.per_batch[size] = BatchSizeReport(
            batch_size=size,
            num_requests=len(served),
            num_batches=len(step_times),
            mean_batch_fill=mean_fill,
            makespan_s=float(makespan),
            throughput_rps=(
                float(len(completed) / makespan) if makespan > 0 else float("inf")
            ),
            latency_p50_s=_pct(50),
            latency_p90_s=_pct(90),
            latency_p99_s=_pct(99),
            mean_service_s=float(np.mean(step_times)) if step_times else 0.0,
            temporal_relative_bops=execution_plan.temporal_relative_bops,
            mac_savings_pct=execution_plan.mac_savings_pct,
            utilization=mean_fill / size,
            served=served,
            outcomes={s.req_id: s.outcome for s in served},
            slo=(
                _slo_class_reports(served, slo_classes) if track_outcomes else []
            ),
            retries=stats.retries,
            recoveries=stats.recoveries,
        )
    if verify_invariance:
        # The largest capacity's replay (the loop's last) is the one checked.
        report.verified_requests = _verify(
            spec.name,
            engine,
            requests,
            noises,
            samples,
            report.per_batch[sizes[-1]].outcomes,
            sizes[-1],
        )
        report.invariance_checked = True
    return report


def _prebuilt_config(engine: DittoEngine, spec, axes) -> EngineConfig:
    """A prebuilt engine's config; every axis passed explicitly must match it.

    Silently recording an override that never took effect would falsify the
    report and alias the plan key.
    """
    EngineConfig.resolve(spec, **axes)  # unknown axis names raise TypeError
    built = engine.config

    def show(name, value):
        return f"{name}={value:g}" if isinstance(value, float) else f"{name}={value!r}"

    for name, value in axes.items():
        if value is not None and value != getattr(built, name):
            raise ValueError(
                f"{show(name, value)} conflicts with a prebuilt "
                f"{built.num_steps}-step engine built with "
                f"{show(name, getattr(built, name))}; a prebuilt engine owns "
                f"its config, so build it with the desired {name} instead"
            )
    return built


def _deviation(got: np.ndarray, want: np.ndarray) -> str:
    """Human-readable max abs/rel deviation between two sample tensors."""
    diff = np.abs(np.asarray(got, dtype=np.float64) - np.asarray(want, dtype=np.float64))
    denom = np.maximum(np.abs(np.asarray(want, dtype=np.float64)), 1e-12)
    return (
        f"max |delta|={float(diff.max()):.6e}, "
        f"max rel={float((diff / denom).max()):.6e}"
    )


def _verify(
    name: str,
    engine: DittoEngine,
    requests: Sequence[Request],
    noises: Sequence[np.ndarray],
    samples: Dict[int, np.ndarray],
    outcomes: Dict[int, str],
    max_batch: int,
) -> List[int]:
    """Check a replay against seeded batch-1 references; return the ids.

    Every *completed* request - whatever interleaving of admissions,
    evictions, and recoveries the queue produced - must match its batch-1
    reference bit-exactly.  So must one stacked batch of the first
    ``min(max_batch, len(requests))`` requests, built independently of what
    the drain happened to form, so a multi-row batch is always checked.
    Each reference is computed once.

    Served rows execute dense; each reference executes temporal (an
    unrecorded run of the difference algebra itself), so the check also
    proves the zero-state difference algebra end to end."""
    from ..scratch import clear_scratch

    completed = sorted(
        rid for rid, outcome in outcomes.items() if outcome == "completed"
    )
    unaccounted = sorted(
        set(req.req_id for req in requests) - set(outcomes)
    )
    if unaccounted:
        raise AssertionError(
            f"replay of {name} lost requests {unaccounted}: no terminal "
            "outcome recorded"
        )
    missing = [rid for rid in completed if rid not in samples]
    if missing:
        raise AssertionError(
            f"replay of {name} reported requests {missing} completed but "
            "produced no sample for them"
        )
    if not completed:
        raise AssertionError(
            f"--verify has nothing to check: no request of {name} completed "
            f"(outcomes: {outcomes})"
        )
    fill = min(max_batch, len(requests))  # >= 2, checked by simulate_serving
    num_steps = len(engine.pipeline.sampler.timesteps)
    members = list(range(fill))
    batched = engine.run(
        x_init=np.concatenate([noises[j] for j in members], axis=0),
        record_trace=False,
        rngs=[requests[j].sampler_rng() for j in members],
    ).samples
    # Release the stacked run's batch-sized scratch before the references
    # allocate theirs: the pool never evicts, so both sets would add up.
    clear_scratch()
    for j in sorted(set(completed) | set(members)):
        reference = engine._run(
            x_init=noises[j],
            record_trace=False,
            rngs=[requests[j].sampler_rng()],
            execution=ExecutionMode.TEMPORAL,
        ).samples
        if j in samples and not np.array_equal(samples[j], reference):
            raise AssertionError(
                f"batch invariance violated for request {j} of {name}: "
                "served sample deviates from its batch-1 reference after "
                f"{num_steps} steps, {_deviation(samples[j], reference)}"
            )
        if j < fill and not np.array_equal(batched[j : j + 1], reference):
            raise AssertionError(
                f"batch invariance violated for request {j} in stacked "
                f"batch {members} of {name}: first mismatch after "
                f"{num_steps} steps, {_deviation(batched[j : j + 1], reference)}"
            )
    return completed
