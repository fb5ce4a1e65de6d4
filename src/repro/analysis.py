"""High-level analysis helpers: one-call studies and text tables.

These compose the engine, policies, and hardware models into the studies a
user actually wants to run ("how does Ditto do on this benchmark?"), and
render aligned text tables for terminals / logs.  The CLI (`python -m
repro`) is a thin wrapper over this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .core import DittoEngine, lower_dense, lower_spatial, lower_temporal, relative_bops
from .core.bitwidth import BitWidthStats
from .core.engine import EngineResult
from .hw import FIG13_DESIGNS, DesignPoint, evaluate_designs
from .workloads import get_benchmark

__all__ = ["format_table", "BenchmarkStudy", "run_study"]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    float_format: str = "{:.3f}",
) -> str:
    """Render an aligned plain-text table."""
    def render(cell: object) -> str:
        if isinstance(cell, float):
            return float_format.format(cell)
        return str(cell)

    cells = [[render(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.rjust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


@dataclass
class BenchmarkStudy:
    """Everything one benchmark study produced, with render helpers."""

    benchmark: str
    engine_result: EngineResult
    design_results: Dict[str, object] = field(default_factory=dict)

    # -- algorithm-level findings ------------------------------------------
    def temporal_stats(self) -> BitWidthStats:
        trace = self.engine_result.rich_trace
        if hasattr(trace, "col"):
            mask = trace.col("has_temporal")
            return BitWidthStats(
                total=int(trace.col("t_total")[mask].sum()),
                zero=int(trace.col("t_zero")[mask].sum()),
                low=int(trace.col("t_low")[mask].sum()),
                high=int(trace.col("t_high")[mask].sum()),
            )
        total = BitWidthStats.empty()
        for step in trace:
            if step.stats_temporal is not None:
                total = total.merge(step.stats_temporal)
        return total

    def bops_table(self) -> str:
        trace = self.engine_result.rich_trace
        rows = [
            ["activation", relative_bops(lower_dense(trace))],
            ["spatial diff", relative_bops(lower_spatial(trace), zero_skipping=False)],
            ["temporal diff", relative_bops(lower_temporal(trace))],
        ]
        return format_table(["method", "relative BOPs"], rows)

    # -- hardware-level findings --------------------------------------------
    def hardware_table(self) -> str:
        itc = self.design_results["ITC"].report
        rows = []
        for name, result in self.design_results.items():
            report = result.report
            rows.append(
                [
                    name,
                    itc.total_cycles / report.total_cycles,
                    report.total_energy_pj / itc.total_energy_pj,
                    report.total_bytes / itc.total_bytes,
                    100.0 * report.stall_cycles / max(report.total_cycles, 1.0),
                ]
            )
        return format_table(
            ["design", "speedup", "rel.energy", "rel.mem", "stall%"], rows
        )

    def summary(self) -> str:
        stats = self.temporal_stats()
        parts = [
            self.engine_result.summary(),
            (
                f"temporal diffs: {100 * stats.zero_frac:.1f}% zero, "
                f"{100 * stats.low_or_zero_frac:.1f}% <=4-bit"
            ),
        ]
        defo = self.design_results.get("Ditto")
        if defo is not None and defo.defo is not None:
            parts.append(defo.defo.summary())
        return "\n".join(parts)


def run_study(
    benchmark: str,
    designs: Optional[List[DesignPoint]] = None,
    seed: int = 0,
    batch_size: int = 1,
    engine_result: Optional[EngineResult] = None,
    **axes,
) -> BenchmarkStudy:
    """Run one benchmark end to end and evaluate the hardware designs.

    ``engine_result`` short-circuits the expensive engine construction and
    instrumented run: pass a result produced (and possibly cached) by
    :class:`repro.runtime.EngineRunner` and only the hardware-design
    post-processing is performed.  ``batch_size`` sizes the generated batch
    of a fresh run (per-batch-element temporal state keeps the Ditto
    statistics valid at any batch size); ``axes`` override the engine's
    build axes (:class:`~repro.core.config.EngineConfig` fields).
    """
    spec = get_benchmark(benchmark)
    if engine_result is not None:
        result = engine_result
    else:
        engine = DittoEngine.from_benchmark(spec, **axes)
        result = engine.run(batch_size=batch_size, seed=seed)
    design_results = evaluate_designs(designs or FIG13_DESIGNS, result.rich_trace)
    return BenchmarkStudy(
        benchmark=spec.name,
        engine_result=result,
        design_results=design_results,
    )
