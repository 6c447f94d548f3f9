"""Randomized invariant suites over the whole engine."""

import json

import numpy as np
import pytest

from disaggsim.costs import CostParams
from disaggsim.engine import run_simulation
from disaggsim.models import HardwareSpec, StageRole, builtin_model
from disaggsim.simconfig import InstanceConfig, SchedulePolicy, SystemConfig
from disaggsim.trace import TraceInvariantError
from disaggsim.workload import Request, Slo

MODEL = builtin_model("minicpm-v-2.6")
HW = HardwareSpec(gpu_memory=82e9, intra_node_bandwidth=300e9,
                  inter_node_bandwidth=25e9, num_gpus=16)
COST = CostParams(enc_base=0.05, enc_per_patch=0.02, prefill_base=0.02,
                  prefill_per_token=1e-4, prefill_quad=1e-9, decode_base=0.005,
                  decode_per_seq=0.001, decode_per_kv_token=1e-7)

RESOLUTIONS = [(313, 234), (787, 444), (4032, 3024)]


def random_config(rng: np.random.Generator) -> SystemConfig:
    policy = SchedulePolicy(rng.choice(["fcfs", "round_robin", "least_loaded"]))
    family = rng.choice(["epd", "distserve", "monolithic"])
    instances = []
    if family == "epd":
        for _ in range(int(rng.integers(1, 3))):
            instances.append(InstanceConfig(role=StageRole.ENCODE,
                                            tp=int(rng.integers(1, 4)),
                                            max_batch=int(rng.integers(1, 3)),
                                            policy=policy))
        for _ in range(int(rng.integers(1, 3))):
            instances.append(InstanceConfig(role=StageRole.PREFILL,
                                            max_batch=int(rng.integers(1, 3)),
                                            policy=policy))
        for _ in range(int(rng.integers(1, 3))):
            instances.append(InstanceConfig(role=StageRole.DECODE,
                                            max_batch=int(rng.integers(1, 9)),
                                            policy=policy))
    elif family == "distserve":
        for _ in range(int(rng.integers(1, 4))):
            instances.append(InstanceConfig(role=StageRole.ENCODE_PREFILL,
                                            tp=int(rng.integers(1, 3)),
                                            max_batch=int(rng.integers(1, 3)),
                                            policy=policy))
        instances.append(InstanceConfig(role=StageRole.DECODE,
                                        max_batch=int(rng.integers(1, 9)),
                                        policy=policy))
    else:
        for _ in range(int(rng.integers(1, 5))):
            instances.append(InstanceConfig(role=StageRole.MONOLITHIC,
                                            max_batch=int(rng.integers(1, 3)),
                                            policy=policy))
    return SystemConfig(instances=tuple(instances), hardware=HW, model=MODEL,
                        cost=COST)


def random_workload(rng: np.random.Generator, n: int) -> list[Request]:
    arrivals = np.cumsum(rng.exponential(0.2, size=n))
    requests = []
    for i, t in enumerate(arrivals):
        images = int(rng.integers(0, 3))
        res = RESOLUTIONS[int(rng.integers(0, len(RESOLUTIONS)))]
        requests.append(Request(
            id=i, arrival_time=float(t), prompt_tokens=int(rng.integers(1, 50)),
            images=tuple(res for _ in range(images)),
            output_tokens=int(rng.integers(1, 8)), slo=Slo(10.0, 1.0)))
    return requests


def serialized(trace) -> str:
    return json.dumps({
        "events": list(trace.events()),
        "switch_times": [(s.time, s.offload_done, s.migration_done, s.onload_done)
                         for s in trace.switches],
    })


def test_determinism_over_random_configs():
    rng = np.random.default_rng(42)
    for _ in range(20):
        config = random_config(rng)
        workload = random_workload(rng, 15)
        first = run_simulation(config, workload, seed=7)
        second = run_simulation(config, workload, seed=7)
        assert serialized(first) == serialized(second)


def test_causality_and_conservation_on_large_random_workload():
    rng = np.random.default_rng(7)
    config = SystemConfig(
        instances=(
            InstanceConfig(role=StageRole.ENCODE, tp=2, max_batch=2),
            InstanceConfig(role=StageRole.ENCODE, tp=2, max_batch=2),
            InstanceConfig(role=StageRole.PREFILL, max_batch=2),
            InstanceConfig(role=StageRole.PREFILL, max_batch=2),
            InstanceConfig(role=StageRole.DECODE, max_batch=8),
            InstanceConfig(role=StageRole.DECODE, max_batch=8),
        ),
        hardware=HW, model=MODEL, cost=COST)
    workload = random_workload(rng, 1000)
    trace = run_simulation(config, workload, seed=1)
    trace.validate()
    assert trace.completed_count + trace.rejected_count == 1000
    # multimodal tokens transferred exactly match tokens encoded, per request
    for rec in trace.completed_records():
        sharded = sum(s.patches for s in rec.shards) * MODEL.tokens_per_patch
        assert sharded == rec.mm_tokens
        assert all(s.transfer_end is not None for s in rec.shards)


def test_validate_requires_every_shard_to_end_and_arrive_last_with_its_request():
    config = SystemConfig(
        instances=(InstanceConfig(role=StageRole.ENCODE, tp=3, max_batch=2),
                   InstanceConfig(role=StageRole.PREFILL, max_batch=2),
                   InstanceConfig(role=StageRole.DECODE, max_batch=8)),
        hardware=HW, model=MODEL, cost=COST)
    workload = random_workload(np.random.default_rng(3), 40)
    rid = next(r.id for r in workload if len(r.images) == 2)
    for field, value in (("end", None), ("transfer_end", None), ("transfer_end", -1.0)):
        trace = run_simulation(config, workload)
        trace.validate()
        rec = trace.requests[rid]
        assert len(rec.shards) == 3
        setattr(rec.shards[1], field, value)
        with pytest.raises(TraceInvariantError, match=f"request {rid}: "):
            trace.validate()
    trace = run_simulation(config, workload)
    trace.requests[rid].ep_transfer_end += 1e-13  # within the ordering tolerance
    with pytest.raises(TraceInvariantError, match="last shard's transfer end"):
        trace.validate()


def test_conservation_under_role_switching():
    from disaggsim.presets import get_preset
    preset = get_preset("switch-shifted")
    workload = preset.generate(preset.workload)
    trace = run_simulation(preset.systems["epd"], workload, seed=3)
    trace.validate()
    assert trace.completed_count == len(workload)
    repeat = run_simulation(preset.systems["epd"], workload, seed=3)
    assert serialized(trace) == serialized(repeat)


def test_interference_ordering_random_arrivals():
    # one shared encode+prefill executor is never better for any request than
    # a split pipeline with free transfers and batch size one
    rng = np.random.default_rng(11)
    hw = HardwareSpec(gpu_memory=82e9, intra_node_bandwidth=float("inf"),
                      inter_node_bandwidth=1e9, num_gpus=16)
    aggregated = SystemConfig(
        instances=(InstanceConfig(role=StageRole.ENCODE_PREFILL),
                   InstanceConfig(role=StageRole.DECODE, max_batch=8)),
        hardware=hw, model=MODEL, cost=COST)
    split = SystemConfig(
        instances=(InstanceConfig(role=StageRole.ENCODE),
                   InstanceConfig(role=StageRole.PREFILL),
                   InstanceConfig(role=StageRole.DECODE, max_batch=8)),
        hardware=hw, model=MODEL, cost=COST)
    for trial in range(10):
        arrivals = np.cumsum(rng.exponential(0.4, size=12))
        workload = [
            Request(id=i, arrival_time=float(t), prompt_tokens=22,
                    images=((4032, 3024),) * int(rng.integers(1, 3)),
                    output_tokens=3, slo=Slo(100.0, 10.0))
            for i, t in enumerate(arrivals)
        ]
        agg = run_simulation(aggregated, workload)
        dis = run_simulation(split, workload)
        for rid in agg.requests:
            agg_ttft = agg.requests[rid].first_token_time - agg.requests[rid].arrival
            dis_ttft = dis.requests[rid].first_token_time - dis.requests[rid].arrival
            assert agg_ttft >= dis_ttft - 1e-9, (trial, rid)


def test_irp_dominance_random_widths():
    # sharded encode always beats unsharded when there is real patch work
    from disaggsim.costs import encode_latency
    from disaggsim.engine import irp_shard
    rng = np.random.default_rng(3)
    for _ in range(200):
        patches = int(rng.integers(2, 400))
        width = int(rng.integers(2, 9))
        shards = irp_shard(patches, width)
        if max(shards) == patches:
            continue  # width exceeded patches; nothing to parallelize
        sharded = max(encode_latency(COST, s) for s in shards if s > 0)
        unsharded = encode_latency(COST, patches)
        assert sharded < unsharded


def test_event_times_never_regress():
    # the engine asserts heap monotonicity internally; a long mixed run with
    # switching enabled exercises it end to end
    from disaggsim.presets import get_preset
    preset = get_preset("switch-shifted")
    workload = preset.generate(preset.workload)
    trace = run_simulation(preset.systems["epd"], workload, seed=9)
    events = list(trace.events())
    assert events == sorted(events, key=lambda row: (row[2], row[0], row[1]))
