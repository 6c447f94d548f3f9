"""Closed-form oracles that share no code with the engine.

Each test computes what a run must produce from the cost model's formulas,
written out here, and calls no engine helper besides ``run_simulation``.
"""

import numpy as np
import pytest

from disaggsim.costs import CostParams
from disaggsim.engine import _VECTOR_STEPS, run_simulation
from disaggsim.models import HardwareSpec, StageRole
from disaggsim.simconfig import InstanceConfig, SystemConfig
from disaggsim.workload import Request

# Dyadic costs: every sum below is exact in binary floating point, so the
# oracle's token times must equal the engine's bit for bit.
ENC_BASE, PREFILL_BASE, PREFILL_PER_TOKEN = 1 / 8, 1 / 4, 1 / 64
A, B, C = 1 / 16, 1 / 32, 1 / 1024  # decode step: A + B·batch + C·kv tokens
COST = CostParams(enc_base=ENC_BASE, enc_per_patch=0.0, prefill_base=PREFILL_BASE,
                  prefill_per_token=PREFILL_PER_TOKEN, prefill_quad=0.0,
                  decode_base=A, decode_per_seq=B, decode_per_kv_token=C)
PROMPT = 16  # text-only requests: a request's KV tokens are its prompt


def decode_oracle(outputs: list[int], start: float) -> list[list[float]]:
    """Each request's decode token times, all of them in one batch from
    ``start``: a step takes A + B·n + C·kv, where n counts the requests still
    decoding and kv their prompts plus the tokens they have emitted so far;
    request ``i`` takes ``outputs[i] - 1`` steps after its first token."""
    emitted = [0] * len(outputs)
    times: list[list[float]] = [[] for _ in outputs]
    t = start
    while True:
        active = [i for i, n in enumerate(outputs) if emitted[i] < n - 1]
        if not active:
            return times
        kv = sum(PROMPT + emitted[i] for i in active)
        t += A + B * len(active) + C * kv
        for i in active:
            emitted[i] += 1
            times[i].append(t)


@pytest.mark.parametrize("outputs", [[8] * 4, [100] * 4, [8, 100, 8, 100]],
                         ids=["short", "long", "mixed"])
def test_decode_token_times_are_a_cumulative_sum_of_step_costs(toy_model, toy_hw, outputs):
    """Identical text-only requests arriving at 0 on one monolithic instance:
    request 0 is encoded and prefilled alone, the others in one batch after
    it, and then all decode in one batch, which shrinks as requests finish."""
    assert 8 - 1 < _VECTOR_STEPS <= 100 - 1  # both step planners are used
    config = SystemConfig(
        instances=(InstanceConfig(role=StageRole.MONOLITHIC, max_batch=len(outputs)),),
        hardware=toy_hw, model=toy_model, cost=COST)
    workload = [Request(id=i, arrival_time=0.0, prompt_tokens=PROMPT, images=(),
                        output_tokens=n)
                for i, n in enumerate(outputs)]
    trace = run_simulation(config, workload)

    first = ENC_BASE + PREFILL_BASE + PREFILL_PER_TOKEN * PROMPT
    rest = first + ENC_BASE + PREFILL_BASE + PREFILL_PER_TOKEN * PROMPT * (len(outputs) - 1)
    decode = decode_oracle(outputs, rest)
    for i, rec in enumerate(sorted(trace.requests.values(), key=lambda r: r.rid)):
        assert rec.token_times == [first if i == 0 else rest, *decode[i]], i
        assert rec.completion_time == decode[i][-1]


# M/D/1 on the encode stage: each of N Poisson arrivals waits for one encode
# instance that serves one request at a time, in a fixed ENC_BASE. The first
# WARM arrivals, which find the queue emptier than in steady state, are not
# counted. Across seeds 0-29 the mean wait over the rest spread around the
# Pollaczek-Khinchine value with a relative standard deviation of 0.031,
# 0.036 and 0.050 at rho = 0.3, 0.5 and 0.7 (mean ratios 1.010, 1.007 and
# 1.010); each run below must fall within four of them.
N, WARM = 12_000, 1_200
MD1_SPREAD = {0.3: 0.031, 0.5: 0.036, 0.7: 0.050}


@pytest.mark.parametrize("rho", sorted(MD1_SPREAD))
def test_encode_queue_wait_is_m_d_1(toy_model, rho):
    """Text-only requests of one output token: encoding takes ENC_BASE, and
    prefill takes a microsecond, over links of infinite bandwidth, so only
    the encode queue delays a request's encode start."""
    instant = HardwareSpec(gpu_memory=1e9, intra_node_bandwidth=float("inf"),
                           inter_node_bandwidth=float("inf"), num_gpus=8)
    cost = CostParams(enc_base=ENC_BASE, enc_per_patch=0.0, prefill_base=1e-6,
                      prefill_per_token=0.0, prefill_quad=0.0)
    config = SystemConfig(
        instances=(InstanceConfig(role=StageRole.ENCODE, max_batch=1),
                   InstanceConfig(role=StageRole.PREFILL, max_batch=8),
                   InstanceConfig(role=StageRole.DECODE)),
        hardware=instant, model=toy_model, cost=cost)
    arrivals = np.cumsum(np.random.default_rng(0).exponential(ENC_BASE / rho, N))
    workload = [Request(id=i, arrival_time=float(t), prompt_tokens=PROMPT, images=(),
                        output_tokens=1)
                for i, t in enumerate(arrivals)]
    trace = run_simulation(config, workload)

    waits = [trace.requests[i].encode_start - arrivals[i] for i in range(WARM, N)]
    expected = rho * ENC_BASE / (2 * (1 - rho))
    assert abs(np.mean(waits) / expected - 1) <= 4 * MD1_SPREAD[rho]
