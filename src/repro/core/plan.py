"""Execution plans - the persisted output of one instrumented analysis run.

Ditto's instrumentation (``classify_many`` bucketing inside ``QLayer._record``)
exists to *derive* decisions: the bit-width composition that prices BOPs and
the Defo per-layer mode table.  Neither changes between serving runs of the
same engine - they are functions of the spec, the quantization scales, and
the derivation seed.  So the serving tier derives them **once**, persists the
result as an :class:`ExecutionPlan` in the content-addressed cache (keyed by
:func:`repro.runtime.hashing.plan_key`, invalidated by the same package
source fingerprint as every other entry), and replays every later run with
``record_trace=False`` - zero classify/record cost, samples bit-identical to
the instrumented path (pinned by ``tests/test_plan.py`` and
``tests/test_batched_state.py::test_run_without_trace_matches_instrumented``).

See ``docs/plan-cache.md`` for the artifact format, key derivation, and the
drift-check semantics.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .bitwidth import BitWidthStats, stats_from_counts
from .bops import relative_bops
from .defo import run_defo
from .policy import lower_temporal

__all__ = ["ExecutionPlan", "extract_plan", "compare_plans", "PLAN_FORMAT"]

# Bump when the payload layout below changes; part of the digest, so a
# format change can never alias two plans that happen to share field values.
PLAN_FORMAT = 1


@dataclass(frozen=True)
class ExecutionPlan:
    """Bitwidth plan + Defo decisions derived from one instrumented run.

    Everything a ``record_trace=False`` serving run needs to report (and a
    future fleet worker needs to execute) without re-instrumenting:

    * ``temporal_stats`` - the aggregate zero / 4-bit / over-4-bit operand
      composition of the temporal-difference lowering, rebuilt from the
      trace's summed bucket columns via
      :func:`repro.core.bitwidth.stats_from_counts`.
    * ``temporal_relative_bops`` - BOPs of that lowering relative to the
      dense 8-bit baseline (the serve report's MAC-savings headline).
    * ``decisions`` - the Defo per-layer mode table (layer name ->
      ``ExecutionMode`` name), empty for single-step traces where Defo has
      no second step to compare against.
    * the derivation parameters (``derivation_seed`` /
      ``derivation_batch_size``), so a drift check can replay the *exact*
      instrumented run the plan came from and demand a bit-identical digest.
    """

    benchmark: str
    num_steps: int
    num_model_calls: int
    num_records: int
    total_macs: int
    temporal_relative_bops: float
    temporal_stats: BitWidthStats
    decisions: Dict[str, str] = field(default_factory=dict)
    changed_layers: Tuple[str, ...] = ()
    hardware: str = "Ditto"
    derivation_seed: int = 0
    derivation_batch_size: int = 1
    format: int = PLAN_FORMAT

    @property
    def mac_savings_pct(self) -> float:
        """Percent of dense-baseline BOPs removed by the temporal lowering."""
        return 100.0 * (1.0 - self.temporal_relative_bops)

    def to_payload(self) -> Dict[str, object]:
        """Canonical JSON-ready rendering (the digest input and report form)."""
        return {
            "format": self.format,
            "benchmark": self.benchmark,
            "num_steps": self.num_steps,
            "num_model_calls": self.num_model_calls,
            "num_records": self.num_records,
            "total_macs": self.total_macs,
            "temporal_relative_bops": self.temporal_relative_bops,
            "temporal_stats": {
                "total": self.temporal_stats.total,
                "zero": self.temporal_stats.zero,
                "low": self.temporal_stats.low,
                "high": self.temporal_stats.high,
            },
            "decisions": dict(sorted(self.decisions.items())),
            "changed_layers": sorted(self.changed_layers),
            "hardware": self.hardware,
            "derivation_seed": self.derivation_seed,
            "derivation_batch_size": self.derivation_batch_size,
        }

    @property
    def digest(self) -> str:
        """SHA-256 over the canonical payload - the drift-check identity."""
        payload = json.dumps(self.to_payload(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()

    def summary(self) -> str:
        """One human line for serve reports and logs."""
        return (
            f"plan {self.benchmark}: {self.num_records} records / "
            f"{self.num_steps} steps, temporal rel-BOPs "
            f"{self.temporal_relative_bops:.4f} "
            f"({self.mac_savings_pct:.1f}% MAC savings), "
            f"{len(self.decisions)} Defo decisions [{self.digest[:12]}]"
        )


def extract_plan(
    result,
    hardware: str = "Ditto",
    derivation_seed: int = 0,
    derivation_batch_size: int = 1,
) -> ExecutionPlan:
    """Derive the :class:`ExecutionPlan` from one instrumented run's result.

    Parameters
    ----------
    result:
        An :class:`~repro.core.engine.EngineResult` whose ``rich_trace``
        carries per-mode operand stats (i.e. produced with
        ``record_trace=True``, the default).
    hardware:
        Accelerator name for the Defo cycle model
        (:func:`repro.hw.build_accelerator`); decisions are skipped -- not
        failed -- for single-step traces, where Defo has no second step.
    derivation_seed, derivation_batch_size:
        The run parameters that produced ``result``; recorded so the drift
        check can replay the identical derivation.

    Returns
    -------
    ExecutionPlan
        The persisted-plan artifact; see the class docstring for fields.

    Raises
    ------
    ValueError
        If ``result`` has an empty trace (nothing to plan from - typically a
        ``record_trace=False`` run).
    """
    trace = result.rich_trace
    if not len(trace):
        raise ValueError(
            "cannot extract a plan from an empty trace; derive plans from an "
            "instrumented run (record_trace=True)"
        )
    temporal = lower_temporal(trace)
    stats = stats_from_counts(
        int(temporal.col("st_total").sum()),
        int(temporal.col("st_zero").sum()),
        int((temporal.col("st_zero") + temporal.col("st_low")).sum()),
    )
    decisions: Dict[str, str] = {}
    changed: Tuple[str, ...] = ()
    if trace.num_steps() >= 2:
        # Deferred import: repro.hw imports repro.core, so a module-level
        # import here would make the core package depend on its consumer.
        from ..hw import build_accelerator

        report = run_defo(trace, build_accelerator(hardware))
        decisions = {name: mode.name for name, mode in report.decisions.items()}
        changed = tuple(report.changed_layers)
    return ExecutionPlan(
        benchmark=result.benchmark,
        num_steps=trace.num_steps(),
        num_model_calls=result.num_model_calls,
        num_records=len(trace),
        total_macs=trace.total_macs(),
        temporal_relative_bops=float(relative_bops(temporal)),
        temporal_stats=stats,
        decisions=decisions,
        changed_layers=changed,
        hardware=hardware,
        derivation_seed=derivation_seed,
        derivation_batch_size=derivation_batch_size,
    )


def compare_plans(cached: ExecutionPlan, fresh: ExecutionPlan) -> List[str]:
    """Field-level differences between two plans (empty list = identical).

    Used by the serving drift check: ``fresh`` is re-derived by replaying
    ``cached``'s exact derivation run, so any difference means the cached
    artifact no longer matches what the current engine actually computes
    (a stale-cache bug, manual tampering, or nondeterminism - all worth
    reporting, none worth crashing a serve over).
    """
    if cached.digest == fresh.digest:
        return []
    diffs: List[str] = []
    for name, a, b in (
        ("format", cached.format, fresh.format),
        ("benchmark", cached.benchmark, fresh.benchmark),
        ("num_steps", cached.num_steps, fresh.num_steps),
        ("num_model_calls", cached.num_model_calls, fresh.num_model_calls),
        ("num_records", cached.num_records, fresh.num_records),
        ("total_macs", cached.total_macs, fresh.total_macs),
        (
            "temporal_relative_bops",
            cached.temporal_relative_bops,
            fresh.temporal_relative_bops,
        ),
        ("temporal_stats", cached.temporal_stats, fresh.temporal_stats),
        ("hardware", cached.hardware, fresh.hardware),
        ("derivation_seed", cached.derivation_seed, fresh.derivation_seed),
        (
            "derivation_batch_size",
            cached.derivation_batch_size,
            fresh.derivation_batch_size,
        ),
    ):
        if a != b:
            diffs.append(f"{name}: cached {a!r} != fresh {b!r}")
    if cached.decisions != fresh.decisions:
        moved = sorted(
            name
            for name in set(cached.decisions) | set(fresh.decisions)
            if cached.decisions.get(name) != fresh.decisions.get(name)
        )
        diffs.append(f"decisions differ for {len(moved)} layer(s): {moved[:5]}")
    if set(cached.changed_layers) != set(fresh.changed_layers):
        diffs.append("changed_layers differ")
    if not diffs:  # digest caught something the field walk cannot see
        diffs.append("digest mismatch")
    return diffs
