"""Black-box configuration search over instance counts, batches and IRP.

A :class:`ConfigSpace` is a tuple of axes (encode GPUs, IRP on/off, batch
caps, prefill and decode GPUs, policy); a :class:`Candidate` is one point on
them, deployed onto a base system through ``simconfig.expand_shape``. The
objective is a performance metric minus a weighted GPU cost; the simulator
is the evaluator. Exhaustive enumeration is the correctness oracle for small
spaces; random search and a simple surrogate-guided proposer cover larger ones.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

# run_simulation, request_metrics and generate_poisson are not called here:
# they stay bound because perfbench's layers.patched replaces them by name
# in every module that simulates or scores.
from .engine import run_simulation  # noqa: F401
from .metrics import goodput, measure, request_metrics  # noqa: F401
from .simconfig import (ConfigInfeasible, InstanceConfig, SchedulePolicy,
                        SystemConfig, expand_shape, from_dict)
from .models import StageRole
from .workload import Request, WorkloadSpec, generate_poisson  # noqa: F401

NEG_INF = float("-inf")


class EmptyFeasibleSet(Exception):
    """No candidate in the space satisfies the GPU budget."""


class BudgetMode(Enum):
    AT_MOST = "at_most"
    EXACTLY = "exactly"


class Metric(Enum):
    GOODPUT = "goodput"
    NEG_MEAN_TTFT = "neg_mean_ttft"
    THROUGHPUT = "throughput"


class Strategy(Enum):
    EXHAUSTIVE = "exhaustive"
    RANDOM = "random"
    SURROGATE = "surrogate"


@dataclass(frozen=True)
class Candidate:
    """One point of a :class:`ConfigSpace`: a value on each of its axes."""

    encode_gpus: int
    irp: bool
    encode_batch: int
    prefill_gpus: int
    prefill_batch: int
    decode_gpus: int
    decode_batch: int
    policy: SchedulePolicy = SchedulePolicy.FCFS

    @property
    def gpus(self) -> int:
        return self.encode_gpus + self.prefill_gpus + self.decode_gpus

    @property
    def encode_instances(self) -> int:
        return 1 if self.irp else self.encode_gpus

    @property
    def encode_tp(self) -> int:
        return self.encode_gpus if self.irp else 1

    def describe(self) -> dict:
        return {
            "e_instances": self.encode_instances, "e_tp": self.encode_tp,
            "e_batch": self.encode_batch,
            "p_instances": self.prefill_gpus, "p_tp": 1, "p_pp": 1,
            "p_batch": self.prefill_batch,
            "d_instances": self.decode_gpus, "d_tp": 1, "d_pp": 1,
            "d_batch": self.decode_batch,
            "policy": self.policy.value, "gpus": self.gpus,
        }

    def encode_vector(self) -> np.ndarray:
        """Numeric embedding used by the surrogate's distance weighting."""
        return np.array([
            self.encode_instances, self.encode_tp, math.log2(self.encode_batch),
            self.prefill_gpus, 1, math.log2(self.prefill_batch),
            self.decode_gpus, 1, math.log2(self.decode_batch),
            1.0 if self.policy is SchedulePolicy.LEAST_LOADED else 0.0,
        ], dtype=float)

    def deploy(self, base: SystemConfig) -> SystemConfig:
        """``base`` (model, hardware, cost) running this candidate's instances."""
        shape = f"{self.encode_instances}E{self.prefill_gpus}P{self.decode_gpus}D"
        instances = expand_shape(
            shape, tp={StageRole.ENCODE: self.encode_tp},
            max_batch={StageRole.ENCODE: self.encode_batch,
                       StageRole.PREFILL: self.prefill_batch,
                       StageRole.DECODE: self.decode_batch},
            policy=self.policy)
        return replace(base, instances=instances)


@dataclass(frozen=True)
class ConfigSpace:
    """Search space of Candidate configurations under a GPU budget.

    ``irp_choices`` offers the choice between one wide encode instance
    (patches sharded across its workers) and the same GPUs as independent
    width-1 instances.
    """

    gpu_budget: int
    budget_mode: BudgetMode = BudgetMode.EXACTLY
    encode_gpus: Sequence[int] = (1, 2, 3, 4, 5, 6)
    prefill_gpus: Sequence[int] = (1, 2, 3)
    decode_gpus: Sequence[int] = (1, 2, 3)
    irp_choices: Sequence[bool] = (True, False)
    encode_batches: Sequence[int] = (1, 2)
    prefill_batches: Sequence[int] = (1, 2)
    decode_batches: Sequence[int] = (8, 32, 128)
    policies: Sequence[SchedulePolicy] = (SchedulePolicy.FCFS,)

    def __post_init__(self) -> None:
        if self.gpu_budget < 1:
            raise ValueError(f"gpu_budget must be >= 1, not {self.gpu_budget}")
        for axis in fields(self)[2:]:  # the axes, after gpu_budget and budget_mode
            values = getattr(self, axis.name)
            if not values:
                raise ValueError(f"{axis.name} must not be empty")
            if axis.name.endswith(("_gpus", "_batches")) and min(values) < 1:
                raise ValueError(f"{axis.name} must be >= 1, not {min(values)}")

    @property
    def axes(self) -> tuple[Sequence, ...]:
        """The value lists a candidate picks from, in :class:`Candidate` field order."""
        return (self.encode_gpus, self.irp_choices, self.encode_batches,
                self.prefill_gpus, self.prefill_batches, self.decode_gpus,
                self.decode_batches, self.policies)

    def fits_budget(self, candidate: Candidate) -> bool:
        if self.budget_mode is BudgetMode.EXACTLY:
            return candidate.gpus == self.gpu_budget
        return candidate.gpus <= self.gpu_budget

    def enumerate(self) -> Iterator[Candidate]:
        """Deterministic enumeration of every budget-feasible candidate."""
        return filter(self.fits_budget,
                      itertools.starmap(Candidate, itertools.product(*self.axes)))

    def size(self) -> int:
        return sum(1 for _ in self.enumerate())

    def sample(self, rng: np.random.Generator, max_tries: int = 10_000) -> Candidate:
        """Uniform sampling over raw choices with budget rejection."""
        for _ in range(max_tries):
            candidate = Candidate(*(axis[int(rng.integers(len(axis)))] for axis in self.axes))
            if self.fits_budget(candidate):
                return candidate
        raise EmptyFeasibleSet(f"no budget-respecting sample after {max_tries} tries")


def restricted_space(gpu_budget: int = 8) -> ConfigSpace:
    """The reduced space: shared per-stage batch settings, TP and PP fixed to 1
    (IRP width excepted), full GPU budget enforced by rejection."""
    if gpu_budget < 3:
        raise ValueError(f"gpu_budget must be >= 3, one GPU per stage, not {gpu_budget}")
    return ConfigSpace(
        gpu_budget=gpu_budget,
        budget_mode=BudgetMode.EXACTLY,
        encode_gpus=tuple(range(1, gpu_budget - 1)),
        prefill_gpus=tuple(range(1, gpu_budget - 1)),
        decode_gpus=tuple(range(1, gpu_budget - 1)),
    )


def space_from_dict(data: dict) -> ConfigSpace:
    """Build a search space from a JSON-friendly mapping."""
    space = from_dict(ConfigSpace, data)
    # dict keeps order and drops "round_robin" beside "fcfs", which name one policy
    return replace(space, policies=tuple(dict.fromkeys(space.policies)))


def load_space(path) -> ConfigSpace:
    with open(path, "r", encoding="utf-8") as handle:
        return space_from_dict(json.load(handle))


@dataclass(frozen=True)
class Objective:
    metric: Metric = Metric.GOODPUT
    beta: float = 0.075

    def __post_init__(self) -> None:
        if self.beta < 0:
            raise ValueError("beta must be >= 0")


def cost(instances: Sequence[InstanceConfig], cost_per_gpu: float = 1.0) -> float:
    """Total GPU cost of a parallelization plan."""
    return cost_per_gpu * sum(inst.tp * inst.pp for inst in instances)


@dataclass(frozen=True)
class EvalResult:
    score: float
    f_value: float
    cost_value: float
    feasible: bool


def evaluate(config: SystemConfig, workload_spec: WorkloadSpec, objective: Objective,
             rate_grid: Optional[Sequence[float]] = None,
             generate: Optional[Callable[[WorkloadSpec], list[Request]]] = None) -> EvalResult:
    """Score one configuration: metric value minus the weighted GPU cost.
    ``generate`` makes the requests from the spec (see :func:`metrics.measure`)."""
    cost_value = cost(config.instances)
    try:
        config.validate()
        if objective.metric is Metric.GOODPUT:
            if not rate_grid:
                raise ValueError("goodput objective needs a rate grid")
            f_value = goodput(config, workload_spec, rate_grid, generate=generate)
        else:
            scores = measure(config, workload_spec, generate)
            if objective.metric is Metric.NEG_MEAN_TTFT:
                if not scores.completed:
                    raise ConfigInfeasible("no request completed")
                f_value = -scores.mean_ttft
            else:  # THROUGHPUT
                f_value = scores.throughput
    except ConfigInfeasible:
        return EvalResult(score=NEG_INF, f_value=NEG_INF, cost_value=cost_value,
                          feasible=False)
    return EvalResult(score=f_value - objective.beta * cost_value, f_value=f_value,
                      cost_value=cost_value, feasible=True)


@dataclass
class TrialRecord:
    index: int
    candidate: dict
    score: float
    f_value: float
    cost_value: float
    feasible: bool


@dataclass
class SolveResult:
    best_candidate: Candidate
    best_config: SystemConfig
    best_score: float
    log: list[TrialRecord] = field(default_factory=list)


def _surrogate_propose(space: ConfigSpace, rng: np.random.Generator,
                       seen: list[tuple[np.ndarray, float]], pool_size: int = 32) -> Candidate:
    """Pick the pool candidate maximizing predicted score plus an exploration
    bonus proportional to its distance from evaluated points."""
    pool = [space.sample(rng) for _ in range(pool_size)]
    finite = [(x, y) for x, y in seen if y > NEG_INF]
    if not finite:
        return pool[0]
    xs = np.stack([x for x, _ in finite])
    ys = np.array([y for _, y in finite])
    spread = float(ys.std()) or 1.0
    best, best_acq = pool[0], -math.inf
    for cand in pool:
        v = cand.encode_vector()
        dists = np.linalg.norm(xs - v, axis=1)
        nearest = float(dists.min())
        if nearest == 0.0:
            acq = float(ys[dists.argmin()])
        else:
            weights = 1.0 / (dists + 1e-9) ** 2
            acq = float(np.dot(weights, ys) / weights.sum()) + spread * nearest / (1 + nearest)
        if acq > best_acq:
            best, best_acq = cand, acq
    return best


def solve(space: ConfigSpace, workload_spec: WorkloadSpec, objective: Objective,
          base: SystemConfig, strategy: Strategy = Strategy.SURROGATE,
          trials: int = 20, seed: int = 0,
          rate_grid: Optional[Sequence[float]] = None,
          generate: Optional[Callable[[WorkloadSpec], list[Request]]] = None) -> SolveResult:
    """Maximize the objective over the space, each candidate deployed onto
    ``base`` and simulated on ``workload_spec`` (with its seed); ``seed``
    drives only the search's own draws. Every candidate is logged.
    Exhaustive search evaluates each deployed system once: IRP on and off
    with one encode GPU deploy the same system. Random and surrogate search
    still evaluate every draw: perfbench's optimizer-search golden digests
    cover each of their simulations."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    log: list[TrialRecord] = []
    exhaustive = strategy is Strategy.EXHAUSTIVE
    # Exhaustive only, by the deployed system's instances: every candidate shares ``base``.
    results: dict[tuple[InstanceConfig, ...], EvalResult] = {}
    seen: list[tuple[np.ndarray, float]] = []
    best: Optional[tuple[float, Candidate, SystemConfig]] = None

    if exhaustive:
        candidates: Iterator[Candidate] = space.enumerate()
    elif strategy is Strategy.RANDOM:
        candidates = (space.sample(rng) for _ in range(trials))
    else:
        def proposer() -> Iterator[Candidate]:
            warmup = min(trials, max(4, trials // 3))
            for _ in range(warmup):
                yield space.sample(rng)
            for _ in range(trials - warmup):
                yield _surrogate_propose(space, rng, seen)
        candidates = proposer()

    for index, candidate in enumerate(candidates):
        config = candidate.deploy(base)
        result = results.get(config.instances)
        if result is None:
            result = evaluate(config, workload_spec, objective, rate_grid, generate)
            if exhaustive:
                results[config.instances] = result
        log.append(TrialRecord(index=index, candidate=candidate.describe(),
                               score=result.score, f_value=result.f_value,
                               cost_value=result.cost_value, feasible=result.feasible))
        seen.append((candidate.encode_vector(), result.score))
        if result.feasible and (best is None or result.score > best[0]):
            best = (result.score, candidate, config)
    if best is None:
        raise EmptyFeasibleSet("no feasible candidate was evaluated")
    return SolveResult(best_candidate=best[1], best_config=best[2],
                       best_score=best[0], log=log)

