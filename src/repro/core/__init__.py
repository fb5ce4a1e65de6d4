"""The Ditto algorithm: difference processing, Defo, traces, analytics."""

from .bitwidth import BitWidthStats, classify, required_bits, stats_from_counts
from .bops import per_step_relative_bops, relative_bops, trace_bops
from .config import EngineConfig
from .defo import DefoReport, run_defo, run_ideal
from .engine import DittoEngine, EngineResult
from .session import EngineSession
from .graphinfo import GraphAnalyzer, LayerStaticInfo, analyze_model
from .modes import ExecutionMode
from .plan import ExecutionPlan, compare_plans, extract_plan
from .policy import lower_dense, lower_spatial, lower_temporal
from .similarity import (
    ActivationCapture,
    SimilarityReport,
    cosine,
    similarity_report,
    spatial_similarity,
    temporal_similarity,
    value_ranges,
)
from .trace import RichLayerStep, RichTrace, Trace, TraceRecorder

__all__ = [
    "ExecutionMode",
    "BitWidthStats",
    "classify",
    "required_bits",
    "stats_from_counts",
    "ExecutionPlan",
    "extract_plan",
    "compare_plans",
    "RichLayerStep",
    "Trace",
    "RichTrace",
    "TraceRecorder",
    "trace_bops",
    "relative_bops",
    "per_step_relative_bops",
    "lower_dense",
    "lower_spatial",
    "lower_temporal",
    "DefoReport",
    "run_defo",
    "run_ideal",
    "GraphAnalyzer",
    "LayerStaticInfo",
    "analyze_model",
    "DittoEngine",
    "EngineConfig",
    "EngineResult",
    "EngineSession",
    "ActivationCapture",
    "SimilarityReport",
    "cosine",
    "similarity_report",
    "temporal_similarity",
    "spatial_similarity",
    "value_ranges",
]
