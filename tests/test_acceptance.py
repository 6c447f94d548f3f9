"""Acceptance criteria, one test per criterion, each printing PASS on success.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Absolute latencies are synthetic; the assertions target orderings,
ratios and exact metric arithmetic.
"""

import time

import numpy as np
from scipy import stats

from disaggsim.ablations import irp_ablation, optimizer_ablation, switch_ablation
from disaggsim.capacity import DeploymentShape, LimitingFactor, max_batch, \
    max_images_per_request
from disaggsim.costs import (CostParams, decode_step_latency, encode_latency,
                             prefill_latency)
from disaggsim.engine import run_simulation
from disaggsim.metrics import (Score, SweepPoint, goodput_from_sweep, request_metrics,
                               sweep)
from disaggsim.models import (HardwareSpec, ModelSpec, StageRole, builtin_model,
                              weights_bytes)
from disaggsim.presets import (HEAVY_ENCODE_ACT_BYTES, HEAVY_PREFILL_ACT_BYTES,
                               get_preset)
from disaggsim.simconfig import InstanceConfig, SystemConfig
from disaggsim.workload import Request, Slo, WorkloadSpec, generate_poisson

import test_properties as props


def report(number: int, name: str) -> None:
    print(f"\nACCEPTANCE-{number} ({name}): PASS")


def test_acceptance_1_disaggregation_dominance():
    started = time.monotonic()
    preset = get_preset("encode-heavy")
    points = {}
    for label, config in sorted(preset.systems.items()):
        points[label] = sweep(config, preset.workload, preset.rate_grid)

    dominated_rates = [
        i for i in range(len(preset.rate_grid))
        if points["epd"][i].score.attainment >= 0.9
        and points["distserve"][i].score.attainment <= 0.5
        and points["monolithic"][i].score.attainment <= 0.5
    ]
    assert dominated_rates, "no rate with EPD >= 0.9 while both baselines <= 0.5"

    goodputs = {label: goodput_from_sweep(pts, 0.9) for label, pts in points.items()}
    best_baseline = max(goodputs["distserve"], goodputs["monolithic"])
    assert goodputs["epd"] > 0
    assert goodputs["epd"] >= 1.5 * best_baseline

    elapsed = time.monotonic() - started
    assert elapsed < 120, f"sweep took {elapsed:.1f}s"
    report(1, "disaggregation dominance")


def test_acceptance_2_irp_ablation():
    rows = irp_ablation(images_list=(2, 4, 6, 8))
    by_images = {row["images_per_request"]: row["ratio"] for row in rows}
    assert by_images[2] >= 1.5, by_images
    assert by_images[8] >= by_images[2], by_images
    report(2, "patch-sharding ablation")


def test_acceptance_3_optimizer_ablation():
    result = optimizer_ablation(trials=24, num_random=10, seed=20260808)
    assert result["solver_goodput"] >= 2 * result["random_mean_goodput"], result

    # exhaustive strategy equals brute-force enumeration on a small space
    import dataclasses
    from disaggsim.optimizer import (BudgetMode, ConfigSpace, Metric, Objective,
                                     Strategy, evaluate, solve)
    from disaggsim.presets import optimizer_preset
    preset = optimizer_preset()
    preset = dataclasses.replace(
        preset,
        workload=WorkloadSpec(rate_lambda=1.0, num_requests=25, prompt_tokens=22,
                              images_per_request=2, resolution=(4032, 3024),
                              output_tokens=5, seed=5, slo=Slo(1.40, 0.04)))
    space = ConfigSpace(gpu_budget=8, budget_mode=BudgetMode.AT_MOST,
                        encode_gpus=(4, 5), prefill_gpus=(1, 2), decode_gpus=(1, 2),
                        irp_choices=(True, False), encode_batches=(1,),
                        prefill_batches=(1,), decode_batches=(8,))
    assert space.size() <= 50
    objective = Objective(metric=Metric.NEG_MEAN_TTFT, beta=0.01)
    base = SystemConfig(instances=(), hardware=preset.hardware, model=preset.model,
                        cost=preset.cost)
    solved = solve(space, preset.workload, objective, base,
                   strategy=Strategy.EXHAUSTIVE, seed=0)
    brute_best = max(evaluate(c.deploy(base), preset.workload, objective).score
                     for c in space.enumerate())
    assert solved.best_score == brute_best
    report(3, "optimizer ablation and exhaustive oracle")


def test_acceptance_4_role_switch_ablation():
    result = switch_ablation(seed=20260808)
    assert result["makespan_ratio"] <= 0.67, result["makespan_ratio"]
    final_roles = result["with_switch"]["final_roles"]
    assert final_roles.get("D", 0) >= 3, final_roles
    assert result["with_switch"]["completed"] == result["without_switch"]["completed"]
    report(4, "role-switch ablation")


def test_acceptance_5_capacity_ratios():
    # weight-memory reductions from component parameter counts
    expected = {"minicpm-v-2.6": 0.95, "internvl2-8b": 0.9625}
    for name, target in expected.items():
        model = builtin_model(name)
        reduction = 1 - weights_bytes(model, StageRole.ENCODE) / weights_bytes(
            model, StageRole.MONOLITHIC)
        assert abs(reduction - target) <= 0.005, (name, reduction)

    # encode-only workers sustain >= 5x the aggregated batch on the heavy profile
    hw = HardwareSpec(gpu_memory=82e9, intra_node_bandwidth=300e9,
                      inter_node_bandwidth=25e9, num_gpus=1)
    for name in ("minicpm-v-2.6", "internvl2-8b", "internvl2-26b"):
        model = builtin_model(name)
        encode_shape = DeploymentShape(
            role=StageRole.ENCODE, enc_act_bytes_per_token=HEAVY_ENCODE_ACT_BYTES)
        aggregated_shape = DeploymentShape(
            role=StageRole.ENCODE_PREFILL, kv_fraction=0.8,
            act_bytes_per_token=HEAVY_PREFILL_ACT_BYTES,
            enc_act_bytes_per_token=HEAVY_ENCODE_ACT_BYTES)
        enc = max_batch(model, hw, encode_shape, 10, (4032, 3024), 22)
        agg = max_batch(model, hw, aggregated_shape, 10, (4032, 3024), 22)
        floor = agg.value if agg.feasible else 1
        assert enc.feasible and enc.value >= 5 * floor, (name, enc, agg)

    # the 8B model is context-limited, not memory-limited, at 19 images
    model = builtin_model("internvl2-8b")
    shape = DeploymentShape(role=StageRole.PREFILL, kv_fraction=0.8,
                            act_bytes_per_token=HEAVY_PREFILL_ACT_BYTES)
    report_19 = max_images_per_request(model, hw, shape, (4032, 3024), 22)
    assert report_19.feasible and report_19.value == 19
    assert report_19.limiting_factor is LimitingFactor.CONTEXT_LENGTH
    report(5, "capacity ratios")


def test_acceptance_6_metric_oracles():
    model = ModelSpec(name="oracle", encoder_params=1_000_000, llm_params=4_000_000,
                      num_layers=2, kv_heads=2, head_dim=4, hidden_dim=8,
                      tokens_per_patch=4, max_context_tokens=10_000,
                      patch_table={(100, 100): 6}, bytes_per_param=2)
    cost = CostParams(enc_base=0.2, enc_per_patch=0.1, prefill_base=0.1,
                      prefill_per_token=0.01, prefill_quad=1e-5, decode_base=0.05,
                      decode_per_seq=0.01, decode_per_kv_token=0.0)
    hw = HardwareSpec(gpu_memory=1e9, intra_node_bandwidth=float("inf"),
                      inter_node_bandwidth=1e9, num_gpus=8)
    config = SystemConfig(
        instances=(InstanceConfig(role=StageRole.ENCODE, tp=2),
                   InstanceConfig(role=StageRole.PREFILL),
                   InstanceConfig(role=StageRole.DECODE, max_batch=4)),
        hardware=hw, model=model, cost=cost)
    request = Request(id=0, arrival_time=0.0, prompt_tokens=10,
                      images=((100, 100),), output_tokens=4, slo=Slo(100.0, 10.0))
    trace = run_simulation(config, [request])
    metrics = request_metrics(trace, Slo(100.0, 10.0))[0]

    # closed-form: two balanced 3-patch shards, then a 34-token prefill
    expected_ttft = encode_latency(cost, 3) + prefill_latency(cost, 34)
    assert abs(metrics.ttft - expected_ttft) <= 1e-9

    # exact TPOT: dyadic coefficients make every float addition exact
    exact_cost = CostParams(enc_base=0.25, enc_per_patch=0.125, prefill_base=0.25,
                            prefill_per_token=0.0, prefill_quad=0.0,
                            decode_base=0.125, decode_per_seq=0.125,
                            decode_per_kv_token=0.0)
    exact_config = SystemConfig(
        instances=(InstanceConfig(role=StageRole.ENCODE, tp=2),
                   InstanceConfig(role=StageRole.PREFILL),
                   InstanceConfig(role=StageRole.DECODE, max_batch=4)),
        hardware=hw, model=model, cost=exact_cost)
    exact_trace = run_simulation(exact_config, [request])
    exact_metrics = request_metrics(exact_trace, Slo(100.0, 10.0))[0]
    assert exact_metrics.tpot == decode_step_latency(exact_cost, 1, 0)

    points = [SweepPoint(rate, Score(attainment, 0.0, 0.0, 0.0, 0, 0.0))
              for rate, attainment in ((0.5, 1.0), (1.0, 0.95), (1.5, 0.4))]
    brute = max((p.rate for p in points if p.score.attainment >= 0.9), default=0.0)
    assert goodput_from_sweep(points, 0.9) == brute == 1.0
    report(6, "metric correctness oracles")


def test_acceptance_7_property_suites(tmp_path):
    started = time.monotonic()
    props.test_determinism_over_random_configs(tmp_path)
    props.test_causality_and_conservation_on_large_random_workload()
    props.test_irp_dominance_random_widths()
    props.test_event_times_never_regress(tmp_path)

    # cost formula on randomized instance lists vs direct summation
    rng = np.random.default_rng(0)
    from disaggsim.optimizer import cost
    for _ in range(100):
        widths = [(int(rng.integers(1, 5)), int(rng.integers(1, 5)))
                  for _ in range(int(rng.integers(0, 9)))]
        instances = [InstanceConfig(role=StageRole.DECODE, tp=tp, pp=pp)
                     for tp, pp in widths]
        assert cost(instances, 2.0) == 2.0 * sum(tp * pp for tp, pp in widths)

    elapsed = time.monotonic() - started
    assert elapsed < 60, f"property suites took {elapsed:.1f}s"
    report(7, "property suites")


def test_acceptance_8_workload_statistics():
    rate = 2.0
    for seed in range(5):
        spec = WorkloadSpec(rate_lambda=rate, num_requests=5000, prompt_tokens=22,
                            images_per_request=0, output_tokens=10, seed=seed,
                            slo=Slo(1.0, 1.0))
        arrivals = np.array([r.arrival_time for r in generate_poisson(spec)])
        gaps = np.diff(np.concatenate([[0.0], arrivals]))
        result = stats.kstest(gaps, "expon", args=(0, 1 / rate))
        assert result.pvalue > 0.01, (seed, result.pvalue)
    report(8, "workload statistics")
