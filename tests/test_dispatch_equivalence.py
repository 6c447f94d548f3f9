"""Touched-only dispatch and running load totals against a full rescan.

The engine revisits only the instances an event touched, retries the wait
queues only after a cache free or a pool change, reads queue loads from
running sums, and admits requests by its cache-fit rule. ``FullScanSim``
undoes these shortcuts: it marks every instance and both wait queues on
every event, as a full scan does, checks admission with its own scan of
every instance's caches, decides whether a role switch strands a request by
scanning every request that has arrived (for an encode source too, which
the engine skips), and after every event checks each running sum (the
resident KV tokens of a decode batch included), each decode-step factor,
block count and the set of open requests against a fresh rescan. Its traces
must equal the real engine's, byte for byte, and no run may stall.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from disaggsim.cli import _preset_workload
from disaggsim.controller import ControllerParams
from disaggsim.costs import parallel_factor
from disaggsim.engine import _Sim, run_simulation
from disaggsim.models import StageRole
from disaggsim.presets import switch_preset
from disaggsim.simconfig import InstanceConfig, SchedulePolicy, SystemConfig
from disaggsim.workload import Request, Slo

PRESET = switch_preset()
BASE = PRESET.systems["epd"]
RESOLUTIONS = [(313, 234), (787, 444), (4032, 3024)]
# Simulated seconds after which a run counts as stalled, so that a deadlock
# fails fast instead of hanging: with the controller on, the monitor re-arms
# for as long as requests are open. Stalls fail the test.
STALL_TIME = 10_000.0
# Looser than the preset so that short random workloads still switch roles.
EAGER = ControllerParams(monitor_interval=0.5, imbalance_threshold=1.5, smoothing=1.0,
                         min_instances_per_stage=1, cooldown=1.0,
                         stage_work_scale=BASE.role_switch.stage_work_scale)


class Stalled(Exception):
    """Requests were still open at ``STALL_TIME``."""


def rescan_errors(sim: _Sim) -> list[str]:
    """Every running total or block count that disagrees with a rescan."""
    errors = []
    for inst in sim.insts:
        running = inst.running.rids if inst.running is not None else ()
        for field, rids, attr in (("queued_patches", inst.queue, "patches"),
                                  ("queued_tokens", inst.queue, "total_tokens"),
                                  ("running_patches", running, "patches"),
                                  ("running_tokens", running, "total_tokens")):
            expected = sum(getattr(sim.rs[rid], attr) for rid in rids)
            if getattr(inst, field) != expected:
                errors.append(f"instance {inst.iid} {field}={getattr(inst, field)} "
                              f"!= rescan {expected}")
        resident_kv = sum(sim.rs[rid].total_tokens + sim.rs[rid].emitted
                          for rid in inst.resident)
        if inst.resident_kv != resident_kv:
            errors.append(f"instance {inst.iid} resident_kv={inst.resident_kv} "
                          f"!= rescan {resident_kv}")
        if inst.step_factor != parallel_factor(sim.cost, inst.tp, inst.pp):
            errors.append(f"instance {inst.iid} step_factor is not its tp x pp factor")
        for manager in (inst.mm, inst.kv):
            if manager is not None and \
                    manager.free_blocks + sum(manager.allocated.values()) != manager.total_blocks:
                errors.append(f"instance {inst.iid} {manager.kind.value} blocks do not add up")
    open_rids = {r.req.id for r in sim.arrived
                 if r.rec.rejected is None and r.rec.completion_time is None}
    if set(sim.rs) != open_rids:
        errors.append(f"open requests {sorted(sim.rs)} != rescan {sorted(open_rids)}")
    offloading = [inst.iid for inst in sim.insts if inst.state == "offloading"]
    if offloading and (sim.switch_rec is None or offloading != [sim.switch_rec.instance_id]):
        errors.append(f"offloading {offloading} is not the switching instance")
    return errors


class CheckedSim(_Sim):
    """The real engine, checked against a rescan and for a stall after every event."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.arrived = []  # every request that has arrived, admitted or not

    def _on_arrival(self, t: float, r) -> None:
        self.arrived.append(r)
        super()._on_arrival(t, r)

    def _dispatch(self, t: float) -> None:
        super()._dispatch(t)
        errors = rescan_errors(self)
        assert not errors, f"t={t}: {errors}"
        if t >= STALL_TIME:
            raise Stalled(f"{self.outstanding} requests still open at t={t}")


class FullScanSim(CheckedSim):
    """Every instance and both wait queues revisited on every event,
    admission checked against every instance's cache, and a switch's
    stranding decided over every request that has arrived."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.max_waits = [0, 0]

    def _admission_reason(self, r) -> str | None:
        if r.total_tokens == 0:
            return "empty"
        if r.total_tokens > self.model.max_context_tokens:
            return "context"
        mm_ok = kv_p_ok = kv_d_ok = False
        for inst in self.insts:
            if inst.state != "active":
                continue
            role, mm, kv = inst.role, inst.mm, inst.kv
            if role.serves_encode and mm is not None:
                mm_ok |= mm.blocks_needed(r.mm_tokens) <= mm.total_blocks
            if role.serves_prefill and mm is not None and kv is not None:
                kv_need = r.total_tokens + (r.req.output_tokens
                                            if role is StageRole.MONOLITHIC else 0)
                kv_p_ok |= (mm.blocks_needed(r.mm_tokens) <= mm.total_blocks
                            and kv.blocks_needed(kv_need) <= kv.total_blocks)
            if role.serves_decode and kv is not None:
                need = r.total_tokens + r.req.output_tokens
                kv_d_ok |= kv.blocks_needed(need) <= kv.total_blocks
        if not mm_ok:
            return "mm_capacity"
        if not (kv_p_ok and kv_d_ok):
            return "kv_capacity"
        return None

    def _strands(self, decision) -> bool:
        # Encode included: the engine skips that scan, which never finds one.
        rest = [i for i in self.insts
                if i.role is decision.source and i.iid != decision.instance_id]
        needs = {StageRole.ENCODE: lambda r: r.rec.encode_start is None,
                 StageRole.PREFILL: lambda r: r.p_iid is None,
                 StageRole.DECODE: lambda r: r.d_iid is None}[decision.source]
        return any(r.e_iid is not None and r.rec.completion_time is None and needs(r)
                   and not any(i.holds(r) for i in rest) for r in self.arrived)

    def _dispatch(self, t: float) -> None:
        self.max_waits = [max(self.max_waits[0], len(self.ep_wait)),
                          max(self.max_waits[1], len(self.pd_wait))]
        self.touched.update(range(len(self.insts)))
        self.recheck_waits = True
        super()._dispatch(t)


def outcome(sim: _Sim):
    """The trace, or the type and message of the error that ended the run."""
    try:
        return sim.run()
    except (AssertionError, Stalled):
        raise
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


def assert_equivalent(config: SystemConfig, workload: list[Request]) -> FullScanSim:
    reference = FullScanSim(config, workload, 7)
    expected = outcome(reference)
    checked = CheckedSim(config, workload, 7)
    assert outcome(checked) == expected
    if not isinstance(expected, tuple):
        assert not reference.rs and not checked.rs, "requests still open after the run"
        assert run_simulation(config, workload, seed=7) == expected
    return reference


def tiny(config: SystemConfig, **changes) -> SystemConfig:
    """``config`` with caches that hold about four 4K requests at a time."""
    return replace(config, mm_cache_tokens=2600, kv_fraction=0.003, **changes)


@pytest.mark.parametrize("config", [
    BASE,
    tiny(BASE),
    tiny(BASE, admission_control=False),
    tiny(BASE, role_switch=EAGER),
], ids=["preset", "tiny-caches", "no-admission-control", "eager-switch"])
def test_switch_shifted_matches_full_scan(config):
    workload = _preset_workload(PRESET, None)
    reference = assert_equivalent(config, workload)
    assert reference.outstanding == 0
    assert reference.switches, "the controller never switched"
    if config.mm_cache_tokens < BASE.mm_cache_tokens:
        assert min(reference.max_waits) > 0, "a wait queue never filled"


def test_single_output_token_matches_full_scan():
    workload = [replace(r, output_tokens=1) for r in _preset_workload(PRESET, None)]
    assert_equivalent(tiny(BASE), workload)


@pytest.mark.parametrize("mm_cache_tokens", [639, 640])
def test_admission_at_exact_cache_sizes(mm_cache_tokens):
    """A request needing exactly a whole cache is admitted; one token more is not."""
    config = replace(BASE, mm_cache_tokens=mm_cache_tokens, kv_fraction=0.003, role_switch=None)
    decode_tokens = _Sim(config, [], 0).insts[-1].kv.total_blocks * config.block_size
    first = _preset_workload(PRESET, None)[0]  # one 4K image: 640 MM tokens
    total = first.prompt_tokens + 640
    workload = [replace(first, id=0, output_tokens=decode_tokens - total),
                replace(first, id=1, output_tokens=decode_tokens - total + 1)]
    reasons = [rec.rejected for rec in assert_equivalent(config, workload).records.values()]
    assert reasons == (["mm_capacity"] * 2 if mm_cache_tokens < 640 else [None, "kv_capacity"])


def random_case(seed: int) -> tuple[SystemConfig, list[Request]]:
    """An epd (with or without a controller), distserve or monolithic system
    with small caches, and up to 40 mixed requests, all drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    policy = SchedulePolicy(rng.choice(["fcfs", "round_robin", "least_loaded"]))
    family = rng.choice(["epd", "epd", "distserve", "monolithic"])
    roles = {"epd": [(StageRole.ENCODE, 4), (StageRole.PREFILL, 2), (StageRole.DECODE, 2)],
             "distserve": [(StageRole.ENCODE_PREFILL, 2), (StageRole.DECODE, 2)],
             "monolithic": [(StageRole.MONOLITHIC, 2)]}[family]
    instances = tuple(InstanceConfig(role=role, tp=int(rng.integers(1, 3)),
                                     max_batch=int(rng.integers(1, 5)), policy=policy)
                      for role, most in roles for _ in range(rng.integers(1, most + 1)))
    controller = [None, EAGER, BASE.role_switch][rng.integers(3)] if family == "epd" else None
    config = replace(BASE, instances=instances, role_switch=controller,
                     hardware=replace(BASE.hardware, num_gpus=24),
                     mm_cache_tokens=int(rng.choice([700, 1300, 2600, 48_000])),
                     kv_fraction=float(rng.choice([0.001, 0.002, 0.003, 0.01, 0.5])),
                     admission_control=bool(rng.integers(2)))
    n = int(rng.integers(1, 41))
    arrivals = np.cumsum(rng.exponential(rng.choice([0.02, 0.1, 0.4]), size=n))
    workload = [Request(id=i, arrival_time=float(t), prompt_tokens=int(rng.integers(1, 41)),
                        images=tuple(RESOLUTIONS[j] for j in rng.integers(0, 3, rng.integers(3))),
                        output_tokens=int(rng.choice([1, 1, 2, 30, 200])), slo=Slo(5.0, 0.1))
                for i, t in enumerate(arrivals)]
    return config, workload


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1))
# Each stalled before arrival and prefill routing kept to instances that hold
# the request: a queue head that could never fit a prefill or fused
# instance's whole KV cache blocked that queue for good.
@example(seed=1_911_805_286)  # 1E2P1D, prefill at tp 2 and tp 1, controller on
@example(seed=2_504_989_896)  # 2M at tp 2 and tp 1
@example(seed=3_102_071_675)  # 2EP2D, EP at tp 2 and tp 1
# Each stalled before a switch that would take away a role's last instance
# holding a waiting request was held back, and before admission left out
# the switching instance.
@example(seed=340_912)  # 2E2P2D: switches held back
@example(seed=8_991)  # 4E2P1D: a request that only the switching instance held is rejected
def test_random_systems_match_full_scan(seed):
    assert_equivalent(*random_case(seed))
