"""Analytic hardware models: Ditto accelerator, baselines, design points."""

from .ablation import DBDS_CONFIG, DB_CONFIG, DS_CONFIG
from .accelerators import (
    AdderTreeAccelerator,
    CambriconDAccelerator,
    GPUModel,
    build_accelerator,
)
from .config import TABLE_III, EnergyModel, HardwareConfig, get_config
from .report import HardwareReport
from .simulator import (
    FIG13_DESIGNS,
    FIG15_DESIGNS,
    FIG16_DESIGNS,
    FIG18_DESIGNS,
    DesignPoint,
    DesignResult,
    evaluate_design,
    evaluate_designs,
)

__all__ = [
    "EnergyModel",
    "HardwareConfig",
    "TABLE_III",
    "get_config",
    "DS_CONFIG",
    "DB_CONFIG",
    "DBDS_CONFIG",
    "AdderTreeAccelerator",
    "CambriconDAccelerator",
    "GPUModel",
    "build_accelerator",
    "HardwareReport",
    "DesignPoint",
    "DesignResult",
    "evaluate_design",
    "evaluate_designs",
    "FIG13_DESIGNS",
    "FIG15_DESIGNS",
    "FIG16_DESIGNS",
    "FIG18_DESIGNS",
]
