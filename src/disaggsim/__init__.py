"""Discrete-event simulator and configuration optimizer for disaggregated
multimodal-model serving."""

from .costs import Channel, CostParams
from .engine import run_simulation
from .metrics import goodput, score
from .models import HardwareSpec, ModelSpec, StageRole, builtin_catalog
from .simconfig import InstanceConfig, SchedulePolicy, SystemConfig
from .workload import Request, Slo, WorkloadSpec, generate_poisson

__all__ = [
    "Channel", "CostParams", "HardwareSpec", "InstanceConfig", "ModelSpec",
    "Request", "SchedulePolicy", "Slo", "StageRole", "SystemConfig",
    "WorkloadSpec", "builtin_catalog", "generate_poisson", "goodput",
    "run_simulation", "score",
]

__version__ = "0.1.0"
