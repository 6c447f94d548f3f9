"""Dynamic role switching: queue monitoring and the switch decision rule.

The decision logic is pure so it can be unit-tested against hand-built
states; the engine feeds it queue snapshots and executes the resulting
offload / migration / onload phases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .costs import CostParams
from .models import StageRole


@dataclass(frozen=True)
class ControllerParams:
    """Monitoring cadence and trigger shape for role switching.

    Stage queue loads are measured in stage-native work units (patches,
    prefill tokens, resident sequences); ``stage_work_scale`` divides each
    stage's load before ratios are compared so one unit roughly means one
    request everywhere. ``smoothing`` is added to both sides of the ratio.
    """

    monitor_interval: float = 1.0
    imbalance_threshold: float = 3.0
    smoothing: float = 4.0
    min_instances_per_stage: int = 1
    cooldown: float = 5.0
    stage_work_scale: Optional[Mapping[StageRole, float]] = None

    def __post_init__(self) -> None:
        if self.monitor_interval <= 0:
            raise ValueError("monitor_interval must be positive")
        if self.imbalance_threshold <= 1:
            raise ValueError("imbalance_threshold must exceed 1")
        if self.min_instances_per_stage < 1:
            raise ValueError("min_instances_per_stage must be >= 1")
        if self.cooldown < 0:
            raise ValueError("cooldown must be >= 0")
        if self.stage_work_scale is not None:
            if any(scale <= 0 for scale in self.stage_work_scale.values()):
                raise ValueError("stage_work_scale entries must be positive")


@dataclass(frozen=True)
class StageLoad:
    """Queue load of one stage: total work units plus per-instance loads."""

    total: float
    instances: tuple[tuple[int, float], ...]  # (instance id, its load)


@dataclass
class SwitchEventRecord:
    time: float
    instance_id: int
    source: StageRole
    target: StageRole
    redistributed: int = 0
    offload_done: Optional[float] = None
    migration_done: Optional[float] = None
    onload_done: Optional[float] = None


_STAGE_ORDER = (StageRole.ENCODE, StageRole.PREFILL, StageRole.DECODE)


def monitor_and_decide(loads: Mapping[StageRole, StageLoad], params: ControllerParams,
                       now: float, previous_switch_time: float) -> Optional[SwitchEventRecord]:
    """The record of a switch begun ``now``, of an instance from its source
    to its target stage, when stage queues are imbalanced.

    Work units differ by stage (patches / prefill tokens / sequences), so the
    trigger compares additively smoothed ratios rather than raw magnitudes.
    Ties break by stage order then instance id; returns None when balanced,
    inside the cooldown window, or when every under-loaded stage sits at its
    instance floor.
    """
    if now - previous_switch_time < params.cooldown:
        return None
    stages = [s for s in _STAGE_ORDER if s in loads]
    if len(stages) < 2:
        return None
    scale = params.stage_work_scale or {}
    smoothed = {
        s: loads[s].total / scale.get(s, 1.0) + params.smoothing for s in stages
    }
    target = max(stages, key=lambda s: (smoothed[s], -_STAGE_ORDER.index(s)))
    candidates = [
        s for s in stages
        if s is not target and len(loads[s].instances) > params.min_instances_per_stage
    ]
    if not candidates:
        return None
    source = min(candidates, key=lambda s: (smoothed[s], _STAGE_ORDER.index(s)))
    if smoothed[target] / smoothed[source] <= params.imbalance_threshold:
        return None
    instance_id, _ = min(loads[source].instances, key=lambda pair: (pair[1], pair[0]))
    return SwitchEventRecord(time=now, instance_id=instance_id, source=source, target=target)


def migration_latency(cost: CostParams, source: StageRole, target: StageRole) -> float:
    """Model/cache swap duration; longer whenever the encode stage is involved."""
    if StageRole.ENCODE in (source, target):
        return cost.switch_latency_e
    return cost.switch_latency_pd

