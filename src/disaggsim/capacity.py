"""Analytical feasibility reports: max images, max batch, max KV fraction.

All three maximization routines share one monotone feasibility predicate and
report which constraint bound first (memory or the model's context window),
so exhaustive linear scans in the tests can serve as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from .models import (HardwareSpec, ModelSpec, StageRole, kv_bytes_per_token,
                     mm_bytes_per_token, patches_for_image, weights_bytes, Resolution)


class LimitingFactor(Enum):
    MEMORY = "memory"
    CONTEXT_LENGTH = "context_length"


@dataclass(frozen=True)
class DeploymentShape:
    """What is co-resident on one worker and how its free memory is split."""

    role: StageRole
    kv_fraction: float = 0.8
    act_bytes_per_token: float = 0.0
    enc_act_bytes_per_token: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.kv_fraction <= 1:
            raise ValueError("kv_fraction must be within [0, 1]")


@dataclass(frozen=True)
class CapacityReport:
    metric: str
    value: Optional[float]
    feasible: bool
    limiting_factor: LimitingFactor

    @property
    def label(self) -> str:
        if self.feasible:
            return str(self.value)
        return "OOCL" if self.limiting_factor is LimitingFactor.CONTEXT_LENGTH else "OOM"


@dataclass(frozen=True)
class _Budget:
    kv_reserve: float
    pool: float


def _budget(model: ModelSpec, hw: HardwareSpec, shape: DeploymentShape,
            kv_fraction: Optional[float] = None) -> Optional[_Budget]:
    free = hw.gpu_memory - weights_bytes(model, shape.role)
    if free < 0:
        return None
    # Dedicated encode workers reserve nothing for KV cache.
    fraction = 0.0 if shape.role is StageRole.ENCODE else (
        shape.kv_fraction if kv_fraction is None else kv_fraction)
    kv_reserve = fraction * free
    return _Budget(kv_reserve=kv_reserve, pool=free - kv_reserve)


def _per_request_demand(model: ModelSpec, shape: DeploymentShape, mm_tokens: int,
                        total_tokens: int) -> tuple[float, float]:
    """(pool bytes, KV-reservation bytes) one request costs on this shape."""
    mm_bytes = mm_tokens * mm_bytes_per_token(model)
    if shape.role is StageRole.ENCODE:
        return mm_bytes + shape.enc_act_bytes_per_token * mm_tokens, 0.0
    pool = mm_bytes + shape.act_bytes_per_token * total_tokens
    kv = total_tokens * kv_bytes_per_token(model)
    return pool, kv


def _feasible(model: ModelSpec, shape: DeploymentShape, budget: _Budget,
              images: int, batch: int, tokens_per_image: int,
              prompt_tokens: int) -> tuple[bool, LimitingFactor]:
    mm_tokens = images * tokens_per_image
    total_tokens = mm_tokens + prompt_tokens
    if shape.role is not StageRole.ENCODE and total_tokens > model.max_context_tokens:
        return False, LimitingFactor.CONTEXT_LENGTH
    pool_demand, kv_demand = _per_request_demand(model, shape, mm_tokens, total_tokens)
    if batch * pool_demand > budget.pool or batch * kv_demand > budget.kv_reserve:
        return False, LimitingFactor.MEMORY
    return True, LimitingFactor.MEMORY


def _tokens_per_image(model: ModelSpec, resolution: Resolution) -> int:
    return patches_for_image(model, resolution) * model.tokens_per_patch


def _largest(metric: str, model: ModelSpec, hw: HardwareSpec, shape: DeploymentShape,
             resolution: Resolution, prompt_tokens: int, limit: int,
             load: Callable[[int], tuple[int, int]]) -> CapacityReport:
    """Largest n in 1..limit whose ``load(n)``, a pair (images per request,
    concurrent requests), fits; the scan stops at the first failure."""
    budget = _budget(model, hw, shape)
    best = None
    factor = LimitingFactor.MEMORY
    if budget is not None:
        tokens_per_image = _tokens_per_image(model, resolution)
        for n in range(1, limit + 1):
            ok, why = _feasible(model, shape, budget, *load(n), tokens_per_image,
                                prompt_tokens)
            if not ok:
                factor = why
                break
            best = n
    return CapacityReport(metric, best, best is not None, factor)


def max_images_per_request(model: ModelSpec, hw: HardwareSpec, shape: DeploymentShape,
                           resolution: Resolution, prompt_tokens: int = 0,
                           limit: int = 10_000) -> CapacityReport:
    """Largest image count one batch-1 request can carry on this shape."""
    return _largest("max_images_per_request", model, hw, shape, resolution, prompt_tokens,
                    limit, lambda n: (n, 1))


def max_batch(model: ModelSpec, hw: HardwareSpec, shape: DeploymentShape,
              images_per_request: int, resolution: Resolution,
              prompt_tokens: int = 0, limit: int = 100_000) -> CapacityReport:
    """Largest number of concurrent requests that fit on this shape."""
    if images_per_request < 1:
        raise ValueError("images_per_request must be >= 1")
    return _largest("max_batch", model, hw, shape, resolution, prompt_tokens, limit,
                    lambda n: (images_per_request, n))


def max_kv_fraction(model: ModelSpec, hw: HardwareSpec, shape: DeploymentShape,
                    images_per_request: int, resolution: Resolution,
                    prompt_tokens: int = 0) -> CapacityReport:
    """Largest KV reservation (1% steps) keeping a batch-1 request feasible."""
    tokens_per_image = _tokens_per_image(model, resolution)
    best = None
    factor = LimitingFactor.MEMORY
    for percent in range(0, 101):
        fraction = percent / 100.0
        budget = _budget(model, hw, shape, kv_fraction=fraction)
        if budget is None:
            break
        ok, why = _feasible(model, shape, budget, images_per_request, 1,
                            tokens_per_image, prompt_tokens)
        if ok:
            best = fraction
        else:
            factor = why
            if why is LimitingFactor.CONTEXT_LENGTH:
                break  # no fraction can fix an over-long context
    if best is None:
        return CapacityReport("max_kv_fraction", None, False, factor)
    return CapacityReport("max_kv_fraction", best, True, factor)
