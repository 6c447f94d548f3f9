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
block count, the set of open requests and the cached stage pools against a
fresh rescan. Its traces must equal the real engine's, byte for byte, and no
run may stall.

The engine also plans each decode instance's steps in segments under one
heap event, cut short when the batch or the queue changes. ``PerStepSim``
keeps one event per decode step, and its traces must equal the engine's
too: on every system here, on hand-built cases with exact costs where a cut
falls on a step end, on a segment's last step, or on an instance that also
prefills, and on random systems with exact costs, where events of different
instances tie.

The engine folds events whose outcome is fixed when they are pushed: it
keeps only the next arrival in the heap, pushes one WORKER_DONE per distinct
finish time of an encode batch and one E→P TRANSFER_END per request, for its
last shard. ``PerEventSim`` keeps the unfolded shape, and its traces must
equal the engine's on every case here as well.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from disaggsim.controller import ControllerParams
from disaggsim.costs import CostParams, decode_step_latency, encode_latency, parallel_factor
from disaggsim.engine import (_ARRIVAL, _STEP_END, _TRANSFER_END, _VECTOR_STEPS, _WORKER_DONE,
                              _Sim, irp_shard, run_simulation)
from disaggsim.models import StageRole
from disaggsim.presets import get_preset, switch_preset
from disaggsim.simconfig import InstanceConfig, SchedulePolicy, SystemConfig
from disaggsim.trace import ShardRecord
from disaggsim.workload import Request, Slo, generate_poisson

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
        running = inst.running or ()
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
        errors += segment_errors(sim, inst)
        for manager in (inst.mm, inst.kv):
            if manager is not None and \
                    manager.free_blocks + sum(manager.allocated.values()) != manager.total_blocks:
                errors.append(f"instance {inst.iid} {manager.kind.value} blocks do not add up")
    live_ends = [data[0] for _, _, _, kind, data in sim.heap
                 if kind == _STEP_END and data[1] == sim.insts[data[0]].serial]
    stepping = [inst.iid for inst in sim.insts if inst.seg_ends]
    if sorted(live_ends) != stepping:
        errors.append(f"live STEP_ENDs of {sorted(live_ends)} != stepping {stepping}")
    open_rids = {r.req.id for r in sim.arrived
                 if r.rec.rejected is None and r.rec.completion_time is None}
    if set(sim.rs) != open_rids:
        errors.append(f"open requests {sorted(sim.rs)} != rescan {sorted(open_rids)}")
    for stage in ("encode", "prefill", "decode"):
        pool = [inst.iid for inst in sim.insts
                if inst.state == "active" and getattr(inst.role, f"serves_{stage}")]
        if [inst.iid for inst in sim.pools[stage]] != pool:
            errors.append(f"{stage} pool {[i.iid for i in sim.pools[stage]]} != rescan {pool}")
    offloading = [inst.iid for inst in sim.insts if inst.state == "offloading"]
    if offloading and (sim.switch_rec is None or offloading != [sim.switch_rec.instance_id]):
        errors.append(f"offloading {offloading} is not the switching instance")
    return errors


def segment_errors(sim: _Sim, inst) -> list[str]:
    """Whether ``inst``'s segment has members exactly while it has steps,
    over residents, with step ends strictly increasing and none in the past
    (a last step ending now is still to come after an event that sorts
    before STEP_END at the same time)."""
    ends = inst.seg_ends
    if bool(ends) != bool(inst.seg_rids):
        return [f"instance {inst.iid} segment {inst.seg_rids} ending {ends}"]
    if not ends:
        return []
    errors = []
    if any(a >= b for a, b in zip(ends, ends[1:])) or ends[-1] < sim.last_pop:
        errors.append(f"instance {inst.iid} step ends {ends} at t={sim.last_pop}")
    if not set(inst.seg_rids) <= set(inst.resident):
        errors.append(f"instance {inst.iid} segment {inst.seg_rids} not resident")
    return errors


class BoundedSim(_Sim):
    """The engine, raising :class:`Stalled` once an event pops at ``STALL_TIME``."""

    def _dispatch(self, t: float) -> None:
        super()._dispatch(t)
        if t >= STALL_TIME:
            raise Stalled(f"{self.outstanding} requests still open at t={t}")


class CheckedSim(BoundedSim):
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


class PerStepSim(BoundedSim):
    """The engine with one STEP_END per decode step, each over the
    residents of its start, and no segment to cut."""

    def _start_step(self, inst, t: float) -> None:
        batch = tuple(inst.resident)
        duration = decode_step_latency(self.cost, len(batch), inst.resident_kv)
        duration *= inst.step_factor
        inst.seg_rids, inst.seg_ends = batch, [t + duration]
        self._push_step_end(inst, t + duration)

    def _on_step_end(self, t: float, iid: int, serial: int) -> None:
        inst = self.insts[iid]
        rids = inst.seg_rids
        inst.seg_rids, inst.seg_ends = (), []
        self.touched.add(iid)
        inst.resident_kv += len(rids)
        for rid in rids:
            r = self.rs[rid]
            r.emitted += 1
            r.rec.token_times.append(t)
            if r.emitted == r.req.output_tokens - 1:
                self._free(inst, inst.kv, rid)
                inst.resident.remove(rid)
                inst.resident_kv -= r.total_tokens + r.emitted
                self._complete(r, t)
        while inst.admit_wait and len(inst.resident) < inst.max_batch:
            self._reside(inst, inst.admit_wait.popleft())

    def _cut(self, inst, t: float) -> None:
        pass


class PerEventSim(BoundedSim):
    """The engine with its events unfolded: every arrival pushed at the
    start, one WORKER_DONE per encode worker, and one TRANSFER_END per E→P
    shard, which writes the shard's transfer end when it pops."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.shards_done = Counter()
        for r in self.arrivals:  # leaves none for the engine to push
            self._push(r.req.arrival_time, _ARRIVAL, (r,))

    def _start_encode(self, inst, batch, t: float) -> None:
        worker_load = [0] * inst.tp
        worker_items = {}
        for rid in batch:
            r = self.rs[rid]
            r.shards = [(k, p) for k, p in enumerate(irp_shard(r.patches, inst.tp)) if p > 0]
            r.shards = r.shards or [(0, 0)]  # text-only still pays the batch base cost
            r.rec.encode_start = t
            r.rec.shards = [ShardRecord(worker=k, patches=p, start=t) for k, p in r.shards]
            for shard_idx, (k, p) in enumerate(r.shards):
                worker_load[k] += p
                worker_items.setdefault(k, []).append((rid, shard_idx))
        finishes = []
        for k, items in sorted(worker_items.items()):
            finishes.append(t + encode_latency(self.cost, worker_load[k], tp_width=1,
                                               batch_size=len(items)))
            self._push(finishes[-1], _WORKER_DONE, (items,))
        self._launch(inst, batch, max(finishes))

    def _send_ready_shards(self, r, t: float) -> None:
        for shard_idx in r.ready_unsent:
            _, patches = r.shards[shard_idx]
            nbytes = patches * self.model.tokens_per_patch * self.mm_bpt
            end = self._schedule_transfer(r.e_iid, r.p_iid, nbytes, t)
            self._push(end, _TRANSFER_END, ("ep", r.req.id, shard_idx))
        r.ready_unsent.clear()

    def _on_transfer_end(self, t: float, kind: str, rid: int, shard_idx=None) -> None:
        if kind == "ep":
            r = self.rs[rid]
            r.rec.shards[shard_idx].transfer_end = t
            self.shards_done[rid] += 1
            if self.shards_done[rid] < len(r.shards):
                return
        super()._on_transfer_end(t, kind, rid)


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
    assert outcome(PerStepSim(config, workload, 7)) == expected
    assert outcome(PerEventSim(config, workload, 7)) == expected
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
    workload = PRESET.generate(PRESET.workload)
    reference = assert_equivalent(config, workload)
    assert reference.outstanding == 0
    assert reference.switches, "the controller never switched"
    if config.mm_cache_tokens < BASE.mm_cache_tokens:
        assert min(reference.max_waits) > 0, "a wait queue never filled"


class SegmentSim(CheckedSim):
    """The checked engine, recording each segment's step count and step factor."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.segments = []

    def _start_step(self, inst, t: float) -> None:
        super()._start_step(inst, t)
        self.segments.append((len(inst.seg_ends), inst.step_factor))


def test_long_outputs_on_wide_and_deep_decode_matches_per_step():
    """The preset's 500-token outputs on one decode instance two GPUs wide
    and one two stages deep: long segments, planned in one numpy pass, with
    step factors other than 1, against one event per decode step."""
    *others, first, second = BASE.instances
    config = replace(BASE, instances=(*others, replace(first, tp=2), replace(second, pp=2)),
                     hardware=replace(BASE.hardware, num_gpus=10))
    workload = PRESET.generate(PRESET.workload)
    assert_equivalent(config, workload)
    sim = SegmentSim(config, workload, 7)
    sim.run()
    assert sim.switches, "the controller never switched"
    vector_factors = {factor for steps, factor in sim.segments if steps >= _VECTOR_STEPS}
    assert {parallel_factor(config.cost, 2, 1), parallel_factor(config.cost, 1, 2)} <= vector_factors


def test_single_output_token_matches_full_scan():
    workload = [replace(r, output_tokens=1) for r in PRESET.generate(PRESET.workload)]
    assert_equivalent(tiny(BASE), workload)


@pytest.mark.parametrize("mm_cache_tokens", [639, 640])
def test_admission_at_exact_cache_sizes(mm_cache_tokens):
    """A request needing exactly a whole cache is admitted; one token more is not."""
    config = replace(BASE, mm_cache_tokens=mm_cache_tokens, kv_fraction=0.003, role_switch=None)
    decode_tokens = _Sim(config, [], 0).insts[-1].kv.total_blocks * config.block_size
    first = PRESET.generate(PRESET.workload)[0]  # one 4K image: 640 MM tokens
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


# Dyadic costs, so that every event time is exact and ties are real: 0.125 s
# to encode, 0.125 s to prefill, 0.0625 s per transfer, and decode steps of
# 0.125 s plus 0.125 s per sequence.
EXACT_COST = CostParams(enc_base=0.125, enc_per_patch=0.0, prefill_base=0.125,
                        prefill_per_token=0.0, prefill_quad=0.0, decode_base=0.125,
                        decode_per_seq=0.125, decode_per_kv_token=0.0, transfer_setup=0.0625)


def exact_system(*roles: tuple[StageRole, int], kv_fraction: float = 0.5) -> SystemConfig:
    """Width-1 instances of the given (role, max batch) at ``EXACT_COST``,
    with instant links and no controller."""
    hardware = replace(BASE.hardware, intra_node_bandwidth=float("inf"),
                       inter_node_bandwidth=float("inf"))
    return replace(BASE, instances=tuple(InstanceConfig(role=role, max_batch=batch)
                                         for role, batch in roles),
                   cost=EXACT_COST, hardware=hardware, role_switch=None,
                   kv_fraction=kv_fraction)


def exact_request(rid: int, arrival: float, output_tokens: int) -> Request:
    return Request(id=rid, arrival_time=arrival, prompt_tokens=16, images=((313, 234),),
                   output_tokens=output_tokens, slo=Slo(5.0, 0.1))


class RecordingSim(CheckedSim):
    """The checked engine, recording each attempt to cut an open segment as
    (time, planned step ends, whether it was shortened) and counting the
    segments planned while prefill work was queued."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.cuts = []
        self.steps_with_queue = 0

    def _cut(self, inst, t: float) -> None:
        ends, serial = list(inst.seg_ends), inst.serial
        super()._cut(inst, t)
        if ends:
            self.cuts.append((t, ends, inst.serial != serial))

    def _start_step(self, inst, t: float) -> None:
        self.steps_with_queue += bool(inst.queue)
        super()._start_step(inst, t)


def run_exact(config: SystemConfig, workload: list[Request]) -> RecordingSim:
    assert_equivalent(config, workload)
    sim = RecordingSim(config, workload, 7)
    sim.run()
    return sim


EPD = (StageRole.ENCODE, 1), (StageRole.PREFILL, 1)
# Request 0 arriving at 0 is prefilled by 0.3125 and reaches decode at 0.375.
STEPS_ALONE = [0.375 + 0.25 * k for k in range(1, 10)]


def test_transfer_ending_at_a_step_end_cuts_after_that_step():
    # Request 1 reaches decode at 0.875, exactly when request 0's second step ends.
    sim = run_exact(exact_system(*EPD, (StageRole.DECODE, 4)),
                    [exact_request(0, 0.0, 10), exact_request(1, 0.5, 4)])
    assert sim.cuts == [(0.875, STEPS_ALONE, True)]
    assert sim.records[1].token_times[1] == 1.125 + 0.375  # a two-sequence step


def test_admission_to_a_full_batch_waits_without_a_cut():
    sim = run_exact(exact_system(*EPD, (StageRole.DECODE, 1)),
                    [exact_request(0, 0.0, 10), exact_request(1, 0.5, 4)])
    assert sim.cuts == []
    assert sim.records[0].completion_time == STEPS_ALONE[-1]
    assert sim.records[1].token_times[1] == STEPS_ALONE[-1] + 0.25


def test_cut_during_a_segments_last_step_keeps_it():
    # Request 1 reaches decode at 0.75, inside request 0's second and last step.
    sim = run_exact(exact_system(*EPD, (StageRole.DECODE, 4)),
                    [exact_request(0, 0.0, 3), exact_request(1, 0.375, 4)])
    assert sim.cuts == [(0.75, STEPS_ALONE[:2], False)]


def test_monolithic_arrivals_cut_its_decode_segment():
    # Request 0 is encoded and prefilled by 0.25 and decodes in place; request 1
    # arrives exactly at its first step end and is prefilled after the second.
    sim = run_exact(exact_system((StageRole.MONOLITHIC, 4)),
                    [exact_request(0, 0.0, 10), exact_request(1, 0.5, 4),
                     exact_request(2, 1.625, 3)])
    assert sim.cuts[0] == (0.5, [0.25 + 0.25 * k for k in range(1, 10)], True)
    assert sim.records[1].encode_start == 0.75
    # From 1.0 both decode, in steps of 0.375, until request 1's last token.
    assert sim.cuts[1:] == [(1.625, [1.375, 1.75, 2.125], True)]


def test_queued_prefill_that_does_not_fit_is_retried_after_every_step():
    config = exact_system((StageRole.MONOLITHIC, 4), kv_fraction=0.001)
    cache_tokens = _Sim(config, [], 0).insts[0].kv.total_blocks * config.block_size
    prompt = _Sim(config, [exact_request(0, 0.0, 2)], 0).records[0].total_tokens
    # Request 0 takes the whole KV cache, so request 1 waits for it in the queue.
    sim = run_exact(config, [exact_request(0, 0.0, cache_tokens - prompt),
                             exact_request(1, 0.5, 4)])
    # Every step of request 0's output_tokens - 1 but the two begun by 0.5.
    assert sim.steps_with_queue == cache_tokens - prompt - 3
    assert sim.records[1].encode_start == sim.records[0].completion_time


def test_step_ends_at_one_time_pop_in_instance_order():
    # Decode caches of 160 tokens on instance 2 and 352 on instance 3, which
    # is two GPUs wide and steps in 0.125 s. Request 0 (281 KV tokens) fits
    # only instance 3 and decodes there from 0.375; request 1 (121) decodes
    # on instance 2 from 15.375, in steps of 0.25 s. Both emit their last
    # tokens at 25.375, and request 2 (140), which fits beside neither, takes
    # the cache of the one whose STEP_END pops first: instance 2's, although
    # instance 3's segment was pushed first and its last step started later.
    config = exact_system(*EPD, (StageRole.DECODE, 4), (StageRole.DECODE, 4),
                          kv_fraction=1.4e-4)
    config = replace(config, instances=config.instances[:3] + (replace(config.instances[3], tp=2),),
                     cost=replace(EXACT_COST, tp_efficiency=1.0))
    sim = run_exact(config, [exact_request(0, 0.0, 201), exact_request(1, 15.0, 41),
                             exact_request(2, 16.0, 60)])
    assert sim.records[0].completion_time == sim.records[1].completion_time == 25.375
    assert [sim.records[rid].d_instance for rid in range(3)] == [3, 2, 2]


class CountingSim(_Sim):
    """The engine, counting the events it pushes by kind (each pops once, as
    the heap drains) and the most ARRIVALs the heap has held at once."""

    def __init__(self, *args, **kwargs):
        self.pushed = Counter()
        self.most_arrivals = 0
        super().__init__(*args, **kwargs)

    def _push(self, t: float, kind: str, data: tuple) -> None:
        super()._push(t, kind, data)
        self.pushed[kind] += 1
        if kind == _ARRIVAL:
            waiting = sum(event[3] == _ARRIVAL for event in self.heap)
            self.most_arrivals = max(self.most_arrivals, waiting)

    def _push_step_end(self, inst, end: float) -> None:
        super()._push_step_end(inst, end)
        self.pushed[_STEP_END] += 1


class CountingPerEventSim(CountingSim, PerEventSim):
    """``PerEventSim``, counting its events."""


def test_tied_workers_and_interleaved_shards_fold_exactly():
    # Four requests of 6 patches arrive at 0, each sharded [2, 2, 1, 1] over
    # four encode workers. Request 0 is encoded alone: workers 2 and 3 tie at
    # 0.1875, workers 0 and 1 at 0.25. Requests 1 and 2 follow as one batch:
    # its workers tie in pairs at 0.5 and 0.625, and at each time the two
    # requests' shards go out in turn on the one E→P channel, 0.0625 s each.
    # Request 3 is encoded from 0.625 and finds the prefill MM held by
    # requests 0, 1 and 2, so it waits in ep_wait with shards ready until
    # request 0's prefill ends at 0.9375; its shards then queue on the
    # channel behind request 2's last, which arrives at 1.0.
    config = exact_system((StageRole.ENCODE, 2), (StageRole.PREFILL, 1), (StageRole.DECODE, 4))
    config = replace(config, mm_cache_tokens=3 * 384,
                     instances=(replace(config.instances[0], tp=4), *config.instances[1:]),
                     cost=replace(EXACT_COST, enc_per_patch=1 / 16, prefill_base=0.5))
    workload = [replace(exact_request(rid, 0.0, 3), images=((787, 444),) * 2)
                for rid in range(4)]
    assert assert_equivalent(config, workload).max_waits[0] == 1
    sim, unfolded = CountingSim(config, workload, 7), CountingPerEventSim(config, workload, 7)
    records = sim.run().requests
    unfolded.run()
    assert [[s.end for s in records[rid].shards] for rid in range(4)] == \
        [[0.25, 0.25, 0.1875, 0.1875]] + [[0.625, 0.625, 0.5, 0.5]] * 2 + \
        [[0.875, 0.875, 0.8125, 0.8125]]
    sent = sorted((s.transfer_end, rid) for rid in (1, 2) for s in records[rid].shards)
    assert sent == [(0.5 + 0.0625 * k, 2 - k % 2) for k in range(1, 9)]
    assert sorted(s.transfer_end for s in records[3].shards) == \
        [1.0 + 0.0625 * k for k in range(1, 5)]
    assert (sim.pushed[_WORKER_DONE], unfolded.pushed[_WORKER_DONE]) == (6, 12)
    assert (sim.pushed[_TRANSFER_END], unfolded.pushed[_TRANSFER_END]) == (8, 20)
    assert (sim.most_arrivals, unfolded.most_arrivals) == (1, 4)


def test_encode_heavy_epd_event_budget():
    """At most 7 events per request on encode-heavy ``epd``, where unfolded
    arrivals, worker events and shard transfers made 13, and one arrival in
    the heap at a time."""
    preset = get_preset("encode-heavy")
    spec = replace(preset.workload, num_requests=300, rate_lambda=2.0, seed=3)
    sim = CountingSim(preset.systems["epd"], generate_poisson(spec), 7)
    sim.run()
    assert sum(sim.pushed.values()) <= 7 * spec.num_requests, sim.pushed
    assert sim.most_arrivals == 1


def exact_case(seed: int) -> tuple[SystemConfig, list[Request]]:
    """``random_case(seed)`` with dyadic costs, instant links and arrivals on
    eighths of a second, so that events of different instances tie."""
    config, workload = random_case(seed)
    rng = np.random.default_rng(seed + 1)
    eighths = rng.integers(0, 4, size=4) / 8
    cost = replace(EXACT_COST, enc_per_patch=eighths[0] / 16, prefill_base=0.125 + eighths[1],
                   decode_per_seq=eighths[2], transfer_setup=eighths[3] / 2,
                   tp_efficiency=1.0, pp_fill_penalty=0.0)
    hardware = replace(config.hardware, intra_node_bandwidth=float("inf"),
                       inter_node_bandwidth=float("inf"))
    workload = [replace(r, arrival_time=float(np.floor(r.arrival_time * 8) / 8))
                for r in workload]
    return replace(config, cost=cost, hardware=hardware), workload


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1))
# Stalled before an offloading instance waited for reservations of no blocks:
# a prefill instance holding a text-only request's MM reservation switched
# away while the request's encoded data was on its way to it.
@example(seed=700)  # 3E2P1D, controller on
def test_random_exact_cost_systems_match_full_scan(seed):
    assert_equivalent(*exact_case(seed))
