"""Paired feature on/off experiments: patch sharding, optimizer, role switch."""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from .engine import run_simulation
# request_metrics and generate_poisson are not called here: they stay bound
# because perfbench's layers.patched replaces them by name in every scoring
# module.
from .metrics import measure, request_metrics, score  # noqa: F401
from .optimizer import Metric, Objective, Strategy, evaluate, restricted_space, solve
from .models import StageRole
from .presets import (ExperimentPreset, SYNTHETIC_COSTS, MINICPM, RES_4K,
                      build_system, builtin_model, get_preset,
                      offline_batches, slo_for)
from .simconfig import SystemConfig, disable_irp
from .trace import SimTrace
from .workload import WorkloadSpec, generate_poisson  # noqa: F401


def irp_ablation(images_list: Sequence[int] = (2, 4, 6, 8), rate: float = 0.125,
                 num_requests: int = 100, seed: int = 20260808) -> list[dict]:
    """Mean TTFT with patch sharding enabled vs disabled, per image count.

    Both deployments use identical GPUs: one five-worker encode instance
    against the same workers as independent width-1 instances.
    """
    model = builtin_model(MINICPM)
    cost = SYNTHETIC_COSTS[MINICPM]
    with_irp = build_system(model, cost, "1E2P1D", tp={StageRole.ENCODE: 5})
    without_irp = disable_irp(with_irp)
    rows = []
    for images in images_list:
        spec = WorkloadSpec(
            rate_lambda=rate, num_requests=num_requests, prompt_tokens=22,
            images_per_request=images, resolution=RES_4K, output_tokens=10,
            seed=seed, slo=slo_for(MINICPM, images))
        ttft_on = measure(with_irp, spec).mean_ttft
        ttft_off = measure(without_irp, spec).mean_ttft
        rows.append({
            "images_per_request": images,
            "mean_ttft_with_irp": ttft_on,
            "mean_ttft_without_irp": ttft_off,
            "ratio": ttft_off / ttft_on,
        })
    return rows


def optimizer_ablation(trials: int = 24, num_random: int = 10, seed: int = 20260808,
                       beta: float = 0.075,
                       preset: Optional[ExperimentPreset] = None) -> dict:
    """Solver-found configuration vs the mean of uniformly sampled ones.

    Every configuration uses the full GPU budget, so the cost term is a
    constant offset and the comparison is on the raw metric.
    """
    preset = preset or get_preset("optimizer-restricted")
    space = restricted_space(preset.hardware.num_gpus)
    spec = replace(preset.workload, seed=seed)
    objective = Objective(metric=Metric.GOODPUT, beta=beta)
    base = SystemConfig(instances=(), hardware=preset.hardware, model=preset.model,
                        cost=preset.cost)
    result = solve(space, spec, objective, base,
                   strategy=Strategy.SURROGATE, trials=trials, seed=seed,
                   rate_grid=preset.rate_grid)
    solver_goodput = max(rec.f_value for rec in result.log
                         if rec.feasible and rec.score == result.best_score)

    rng = np.random.default_rng(seed + 1)
    random_rows = []
    for index in range(num_random):
        candidate = space.sample(rng)
        outcome = evaluate(candidate.deploy(base), spec, objective, preset.rate_grid)
        random_rows.append({
            "index": index,
            "candidate": candidate.describe(),
            "goodput": outcome.f_value if outcome.feasible else 0.0,
        })
    random_mean = sum(row["goodput"] for row in random_rows) / len(random_rows)
    return {
        "solver_candidate": result.best_candidate.describe(),
        "solver_goodput": solver_goodput,
        "random_mean_goodput": random_mean,
        "random_rows": random_rows,
        "search_log": result.log,
    }


def _final_role_counts(trace: SimTrace) -> dict[str, int]:
    counts: dict[str, int] = {}
    for record in trace.instances.values():
        role = record.role_at(float("inf"))
        counts[role.value] = counts.get(role.value, 0) + 1
    return counts


def switch_ablation(seed: int = 20260808) -> dict:
    """Shifted workload with the switching controller on vs off."""
    preset = get_preset("switch-shifted")
    workload = preset.generate(replace(preset.workload, seed=seed))

    enabled: SystemConfig = preset.systems["epd"]
    disabled = replace(enabled, role_switch=None)

    trace_on = run_simulation(enabled, workload, seed=seed)
    trace_off = run_simulation(disabled, workload, seed=seed)

    def summarize(trace: SimTrace) -> dict:
        scores = score(trace, preset.slo)
        return {
            "makespan": trace.horizon,
            "mean_ttft": scores.mean_ttft,
            "mean_tpot": scores.mean_tpot,
            "completed": scores.completed,
            "switches": len(trace.switches),
            "final_roles": _final_role_counts(trace),
        }

    return {
        "with_switch": summarize(trace_on),
        "without_switch": summarize(trace_off),
        "makespan_ratio": trace_on.horizon / trace_off.horizon,
    }


def offline_throughput(seed: int = 20260808) -> list[dict]:
    """Requests-per-second for each offline system plus shape/batch sweeps."""
    preset = get_preset("offline-throughput")
    spec = replace(preset.workload, seed=seed)
    rows = []

    def throughput(config: SystemConfig) -> float:
        return measure(config, spec, preset.generate).throughput

    for label, config in preset.systems.items():
        rows.append({"system": label, "sweep": "preset", "value": "-",
                     "throughput": throughput(config)})

    model, cost = preset.model, preset.cost
    for e in range(1, 7):
        config = build_system(model, cost, f"{e}E{7 - e}P1D", max_batch=offline_batches(8))
        rows.append({"system": f"epd-{e}E{7 - e}P1D", "sweep": "shape", "value": e,
                     "throughput": throughput(config)})
    for batch in (1, 2, 4, 8, 16):
        config = build_system(model, cost, "5E2P1D", max_batch=offline_batches(batch))
        rows.append({"system": "epd-5E2P1D", "sweep": "batch", "value": batch,
                     "throughput": throughput(config)})
    return rows
