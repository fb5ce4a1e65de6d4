"""The benchmark's three workloads, written against the public ``repro`` API.

Each workload has the same shape:

* ``setup()`` - what a user pays before the first result (timed as
  ``setup_s``): engine build (quantize + calibrate), plus plan derivation
  for serving;
* ``prepare(state)`` - untimed reference computations for the output checks;
* ``unit(state, k)`` - one unit of timed work (a batch, a study, a request
  trace), its inputs derived from the workload seed and ``k`` only;
* ``check(state, outputs)`` - untimed output checks, returning
  ``(attempted, failed, problems)``;
* ``end_to_end(outputs, durations, scales)`` and ``mechanism(...)`` - the
  metrics; ``durations`` are the units' wall times and ``scales[k]``
  converts unit ``k``'s times (and the serving latencies it reports) to
  reference-host seconds (all 1.0 for raw wall-clock values).

Every workload resolves the compute backend the library picks by default and
never names one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["Size", "FULL", "SMOKE", "WORKLOADS", "make_workload", "unit_seed"]


@dataclass(frozen=True)
class Size:
    """How much work one run does.  ``FULL`` is what the benchmark measures;
    ``SMOKE`` is the tiny size the self-tests run."""

    replay_steps: Optional[int] = None  # None: the DDPM spec's own 50 steps
    analyze_steps: Optional[int] = None  # None: the DiT spec's own 50 steps
    serve_steps: int = 10
    serve_traces: int = 5
    serve_requests: int = 40  # per trace
    verify_requests: int = 6
    setup_repeats: int = 5


FULL = Size()
SMOKE = Size(
    replay_steps=2,
    analyze_steps=2,
    serve_steps=2,
    serve_traces=2,
    serve_requests=3,
    verify_requests=3,
    setup_repeats=1,
)

# Mechanism metrics of a run that measures none: no instrumented pass (replay)
# or no hardware model (serve).
MECHANISM_ZERO = {
    "core.bitwidth.temporal_zero_frac": 0.0,
    "core.bitwidth.temporal_low_or_zero_frac": 0.0,
    "core.bops.temporal_relative_bops": 0.0,
    "hw.ditto_speedup_vs_itc": 0.0,
    "hw.ditto_energy_vs_itc": 0.0,
}


def unit_seed(seed: int, k: int) -> int:
    """The seed of unit ``k`` of a run with workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def _plan_mechanism(plan) -> Dict[str, float]:
    stats = plan.temporal_stats
    return {
        "core.bitwidth.temporal_zero_frac": stats.zero / stats.total,
        "core.bitwidth.temporal_low_or_zero_frac": (stats.zero + stats.low) / stats.total,
        "core.bops.temporal_relative_bops": float(plan.temporal_relative_bops),
    }


class Workload:
    """Common plumbing; subclasses fill in the five steps above."""

    name = ""
    why = ""
    min_units = 1
    max_units: Optional[int] = None
    note = ""  # printed under the report

    def __init__(self, seed: int, size: Size = FULL) -> None:
        self.seed = seed
        self.size = size

    def unit_seed(self, k: int) -> int:
        return unit_seed(self.seed, k)

    def prepare(self, state) -> None:
        """Untimed references for the output checks (none by default)."""

    def aliases(self, metrics, outputs, scales) -> Dict[str, Tuple[float, str]]:
        """Workload-specific names for end-to-end numbers, printed beside them."""
        return {}


class ReplayDDPM(Workload):
    """Lockstep plain replay: repeated ``engine.run(batch_size=4,
    record_trace=False)``, a fresh seed per batch."""

    name = "replay-ddpm-b4"
    why = (
        "conv-heavy throughput path (im2col, GEMM, quantize); bit-width "
        "classification and the session layer do no work, so it is the "
        "bypass case for analysis- and scheduler-side changes"
    )
    batch = 4
    min_units = 2

    def setup(self):
        from repro.core import DittoEngine
        from repro.workloads import get_benchmark

        return DittoEngine.from_benchmark(
            get_benchmark("DDPM"), num_steps=self.size.replay_steps
        )

    def prepare(self, engine) -> None:
        # The instrumented run of batch 0's seed: plain replay must match it.
        self.reference = engine.run(batch_size=self.batch, seed=self.unit_seed(0)).samples

    def unit(self, engine, k: int):
        return engine.run(
            batch_size=self.batch, seed=self.unit_seed(k), record_trace=False
        ).samples

    def check(self, engine, outputs) -> Tuple[int, int, List[str]]:
        problems = []
        failed = 0
        for k, samples in enumerate(outputs):
            if not np.isfinite(samples).all():
                failed += 1
                problems.append(f"batch {k}: non-finite samples")
            elif k == 0 and not np.array_equal(samples, self.reference):
                failed += 1
                problems.append("batch 0: plain replay differs from its instrumented reference")
        return len(outputs), failed, problems

    def end_to_end(self, outputs, durations, scales) -> Dict[str, float]:
        times = np.multiply(durations, scales)
        return {
            "gen_samples_per_s": self.batch * len(outputs) / times.sum(),
            "latency_p50_s": float(np.median(times)),
        }

    def mechanism(self, engine, outputs) -> Dict[str, float]:
        return dict(MECHANISM_ZERO)  # a plain replay measures no mechanism

    def aliases(self, metrics, outputs, scales):
        return {"batch_s": (metrics["latency_p50_s"], "s")}


class AnalyzeDiT(Workload):
    """Instrumented studies: ``engine.run(batch_size=1, seed=s)`` then
    ``evaluate_designs(FIG13_DESIGNS, trace)``."""

    name = "analyze-dit-b1"
    why = (
        "figure/analysis path: bit-width classification, trace recording, "
        "attention/linear GEMMs and the hardware models; im2col is ~0.1%, so "
        "it is the bypass case for conv-kernel work"
    )
    min_units = 2

    def setup(self):
        from repro.core import DittoEngine
        from repro.workloads import get_benchmark

        return DittoEngine.from_benchmark(
            get_benchmark("DiT"), num_steps=self.size.analyze_steps
        )

    def _study(self, engine, seed: int):
        from repro.hw import simulator

        result = engine.run(batch_size=1, seed=seed)
        designs = simulator.evaluate_designs(simulator.FIG13_DESIGNS, result.rich_trace)
        return result, designs

    @staticmethod
    def _summary(result, designs) -> Dict[str, float]:
        from repro.core.plan import extract_plan

        itc, ditto = designs["ITC"].report, designs["Ditto"].report
        summary = {"core.trace.records": float(len(result.rich_trace))}
        summary.update(_plan_mechanism(extract_plan(result)))
        summary["hw.ditto_speedup_vs_itc"] = itc.total_cycles / ditto.total_cycles
        summary["hw.ditto_energy_vs_itc"] = ditto.total_energy_pj / itc.total_energy_pj
        return summary

    def prepare(self, engine) -> None:
        # Study 0 of the timed loop repeats this seed; its counts must match.
        self.reference = self._summary(*self._study(engine, self.unit_seed(0)))

    def unit(self, engine, k: int):
        result, designs = self._study(engine, self.unit_seed(k))
        # Keep study 0 whole for the checks; the rest only by record count.
        return (result, designs) if k == 0 else len(result.rich_trace)

    def check(self, engine, outputs) -> Tuple[int, int, List[str]]:
        problems = []
        failed = 0
        expected = int(self.reference["core.trace.records"])
        for k, out in enumerate(outputs):
            if k == 0:
                summary = self._summary(*out)
                if summary != self.reference:
                    failed += 1
                    problems.append(
                        f"study 0: counts {summary} differ from the reference {self.reference}"
                    )
            elif out != expected:
                failed += 1
                problems.append(f"study {k}: {out} trace records, expected {expected}")
        return len(outputs), failed, problems

    def end_to_end(self, outputs, durations, scales) -> Dict[str, float]:
        times = np.multiply(durations, scales)
        return {
            "gen_samples_per_s": len(outputs) / times.sum(),
            "latency_p50_s": float(np.median(times)),
        }

    def mechanism(self, engine, outputs) -> Dict[str, float]:
        summary = self._summary(*outputs[0])
        summary.pop("core.trace.records")
        return summary

    def aliases(self, metrics, outputs, scales):
        return {"study_s": (metrics["latency_p50_s"], "s")}


class ServeDDPM(Workload):
    """Continuous serving with plan replay: open-loop Poisson traces through
    ``simulate_serving(scheduler="continuous", batch_sizes=[4],
    use_plan=True)``.  The run serves ``serve_traces`` traces of
    ``serve_requests`` requests each (200 in all, so p90 has 20 beyond it);
    splitting them lets the host probe run between traces."""

    name = "serve-ddpm-c4"
    why = (
        "same model and kernels as replay, but ragged batches of 1-4 rows "
        "with an admission/eviction/remap on every composition change; "
        "open-loop Poisson arrivals at 2 req/s"
    )
    capacity = 4
    rate_rps = 2.0
    # The verification serve's arrival rate: fast enough that requests are
    # admitted while others are mid-trajectory.
    verify_rate_rps = 20.0
    note = (
        "serve latency runs on the simulator's arrival clock plus measured service "
        "time, so the open-loop generator cannot run late (lateness 0 s)"
    )

    def __init__(self, seed: int, size: Size = FULL) -> None:
        super().__init__(seed, size)
        self.min_units = self.max_units = size.serve_traces

    def _serve(self, engine, seed: int, num_requests: int, rate_rps: float, verify=False):
        from repro.runtime import serving

        return serving.simulate_serving(
            "DDPM",
            batch_sizes=[self.capacity],
            num_requests=num_requests,
            rate_rps=rate_rps,
            pattern="poisson",
            num_steps=self.size.serve_steps,
            seed=seed,
            engine=engine,
            scheduler="continuous",
            use_plan=True,
            verify_invariance=verify,
        )

    def _cache_plan(self, engine, seed: int):
        """Derive the plan ``repro serve --plan`` derives on a cold cache and
        store it under the key simulate_serving looks up for ``seed``."""
        from repro.runtime.cache import ResultCache
        from repro.runtime.hashing import plan_key
        from repro.workloads import get_benchmark

        plan = engine.derive_plan(seed=seed, batch_size=1)
        key = plan_key(
            get_benchmark("DDPM"),
            num_steps=self.size.serve_steps,
            backend=engine.backend,
            derivation_seed=seed,
            derivation_batch_size=1,
        )
        ResultCache().put(key, plan)
        return plan

    def setup(self):
        from repro.core import DittoEngine
        from repro.workloads import get_benchmark

        engine = DittoEngine.from_benchmark(
            get_benchmark("DDPM"), num_steps=self.size.serve_steps
        )
        self.plan = self._cache_plan(engine, self.unit_seed(0))
        return engine

    def prepare(self, engine) -> None:
        # One plan per trace seed, so every timed serve starts warm; only
        # the first derivation is what a user pays at set-up.
        for k in range(1, self.size.serve_traces):
            self._cache_plan(engine, self.unit_seed(k))

    def unit(self, engine, k: int):
        return self._serve(engine, self.unit_seed(k), self.size.serve_requests, self.rate_rps)

    def verify(self, engine) -> Tuple[int, int, List[str]]:
        """Serve trace 0's first requests again - same ids, same seeds,
        arriving fast enough to force admissions mid-flight - and require
        every one bit-exact against its instrumented batch-1 reference."""
        count = self.size.verify_requests
        try:
            report = self._serve(
                engine, self.unit_seed(0), count, self.verify_rate_rps, verify=True
            )
        except AssertionError as exc:
            return count, count, [f"verification serve: {exc}"]
        verified = set(report.verified_requests)
        missing = [rid for rid in range(count) if rid not in verified]
        problems = [f"requests {missing} not verified bit-exact"] if missing else []
        return count, len(missing), problems

    def check(self, engine, outputs) -> Tuple[int, int, List[str]]:
        attempted = failed = 0
        problems = []
        for k, report in enumerate(outputs):
            per = report.per_batch[self.capacity]
            counts = per.outcome_counts()
            lost = self.size.serve_requests - counts["completed"]
            if lost:
                problems.append(f"trace {k}: outcomes {counts}")
            drift = report.plan_drift or {}
            plan_ok = report.plan_source == "cache" and bool(drift.get("matches"))
            if not plan_ok:
                problems.append(
                    f"trace {k}: plan source {report.plan_source!r}, drift {drift}: "
                    "the prepared plan was not served"
                )
            # The plan lookup is one operation of its own.
            attempted += self.size.serve_requests + 1
            failed += lost + (not plan_ok)
        return attempted, failed, problems

    def _latencies(self, outputs, scales):
        """Every completed request's latency, each scaled like its trace."""
        return np.concatenate([
            [s.latency_s * scale for s in r.per_batch[self.capacity].served
             if s.outcome == "completed"]
            for r, scale in zip(outputs, scales)
        ])

    def end_to_end(self, outputs, durations, scales) -> Dict[str, float]:
        latencies = self._latencies(outputs, scales)
        return {
            "gen_samples_per_s": len(latencies) / float(np.dot(durations, scales)),
            "latency_p50_s": float(np.median(latencies)),
            "latency_p90_s": float(np.percentile(latencies, 90)),
        }

    def serving_layer(self, outputs) -> Dict[str, float]:
        pers = [r.per_batch[self.capacity] for r in outputs]
        served = [s for per in pers for s in per.served if s.outcome == "completed"]
        steps = sum(per.num_batches for per in pers)
        latencies = [s.latency_s for s in served]
        return {
            "runtime.serving.latency_p50_s": float(np.median(latencies)),
            "runtime.serving.latency_p90_s": float(np.percentile(latencies, 90)),
            "runtime.serving.queue_wait_p50_s": float(
                np.median([s.launch_s - s.arrival_s for s in served])
            ),
            "runtime.serving.batch_fill_mean": sum(
                per.mean_batch_fill * per.num_batches for per in pers
            ) / steps,
            "runtime.serving.throughput_rps": len(served) / sum(per.makespan_s for per in pers),
        }

    def mechanism(self, engine, outputs) -> Dict[str, float]:
        mech = dict(MECHANISM_ZERO)  # the hardware models do not run while serving
        mech.update(_plan_mechanism(self.plan))
        return mech

    def aliases(self, metrics, outputs, scales):
        layer = self.serving_layer(outputs)
        return {
            "serve_latency_p50_s": (metrics["latency_p50_s"], "s"),
            "serve_latency_p90_s": (metrics["latency_p90_s"], "s"),
            "serve_throughput_rps": (layer["runtime.serving.throughput_rps"], "req/s"),
            "serve_requests": (len(self._latencies(outputs, scales)), "count"),
            "serve_batch_fill_mean": (layer["runtime.serving.batch_fill_mean"], "rows"),
        }


WORKLOADS = {cls.name: cls for cls in (ReplayDDPM, AnalyzeDiT, ServeDDPM)}


def make_workload(name: str, seed: int, size: Size = FULL) -> Workload:
    return WORKLOADS[name](seed, size)
