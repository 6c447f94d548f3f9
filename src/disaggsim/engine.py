"""Deterministic discrete-event engine for staged multimodal serving.

One :class:`_Sim` owns all state for one run: instances with roles and
block-managed caches, FCFS queues, intra-request patch sharding, serialized
transfer channels between instance pairs, and the optional role-switching
controller. Identical inputs always produce identical traces; the engine
itself draws no random numbers.

One cache-fit rule decides what a request reserves where. Encode instances
hold an MM cache, prefill instances MM and KV, decode instances KV. An
instance *holds* request ``r`` when its whole MM cache (if any) fits
``r.mm_tokens`` and its whole KV cache (if any) fits ``r.total_tokens``, plus
``r.output_tokens`` when its role serves decode. A request is admitted only
if every stage has an active instance that holds it, it is only ever routed
to instances that hold it, and the controller's switch is not begun while it
would take away the last instance of a role that holds a request still
waiting for that role. So no request waits for room that never comes.
At batch start an instance reserves MM if its role serves encode and KV if it
serves prefill; a prefill instance reserves MM before the encoded data is
sent to it, and a decode instance KV before the prefilled cache is.

Per-event work does not grow with queue length or cache size, and what a
request needs is worked out once per *shape*. Requests of one (images,
prompt, output) shape share a :class:`_Shape`: patches and tokens, MM
blocks, and KV blocks with and without the output; a :class:`_Req` holds
only where its request is and how far it has got. A shape is judged once
per version of the stage pools, and keeps that version, its admission
verdict and its *holders*, the members of each pool that hold it (the pools
themselves when all do), so no table keeps a finished shape alive; the
pools are rebuilt, under a new version, only when a switch begins or ends.
Caches count blocks instead of naming them (:class:`BlockManager`). A route
takes its stage's holders, keeps those with free blocks only when it
reserves any, then the least-loaded or the next round-robin instance of
those, by the policy of the pool's first instance. What depends only on a
size is worked out once per run: a patch count's shard split over an encode
width and an E→P shard's wire time; an encode batch times each distinct
(patches, items) load of its workers once. Each instance keeps running
patch and token sums of its queue and its running batch for the load reads
and of its decode batch's KV tokens for the step time. Dispatch after an
event visits only the instances that event touched, retrying the wait
queues only after a cache free or a pool change, and while one is not empty.
A request's engine state is kept only while it is open; its trace record is
written as the run goes, and no decision reads it.

Events whose outcome is fixed when they are pushed are folded, leaving 7
per request on encode-heavy ``epd`` where there were 13. Only the next
arrival waits in the heap; ARRIVAL is alone at its priority, so arrivals
pop in workload order. An encode batch pushes one WORKER_DONE per distinct
finish time, over its workers in id order: they are pushed back to back,
so nothing pops between two at one time, and none leaves work to dispatch.
A request's shards share one FIFO channel, so the last sent arrives last:
each shard's transfer end is written when it is sent, a worker event sends
a request's consecutive shards at once, and only the last pushes a
TRANSFER_END.

A decode instance does not pop one event per step. It plans a *segment*:
the run of steps from now through the first in which a member emits its
last token, each step timed by the batch and KV tokens it will have, under
one STEP_END at the segment's end, which hands every member all of its
tokens at once. A shorter segment is timed inline, by the operations of
:func:`decode_step_latency`, which is called once a segment for its checks;
one of ``_VECTOR_STEPS`` steps or more is planned in one numpy pass. Both
give the step ends of one call a step, bit for bit.
Only a change to the batch or the queue makes later steps differ: a
request taking a free batch slot, or queued work on an instance that also
prefills (which plans one step at a time while its queue is not empty).
Either *cuts* the segment: the steps already ended are applied, the step
in flight becomes its last, and the old STEP_END, whose serial is now
stale, is dropped when it pops. STEP_ENDs at the same time pop in iid
order, which does not depend on when each was pushed, so traces are those
of one event per step under the same order.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_right
from collections import deque
from typing import Callable, Optional, Sequence

import numpy as np

from .blocks import BlockManager, CacheKind, blocks_for
from .controller import (SwitchDecision, SwitchEventRecord, migration_latency,
                         monitor_and_decide, StageLoad)
from .costs import (CostParams, decode_step_latencies, decode_step_latency,
                    encode_latency, parallel_factor, prefill_latency, transfer_latency)
from .models import (StageRole, kv_bytes_per_token, mm_bytes_per_token,
                     patches_for_image, tokens_for_request, weights_bytes)
from .simconfig import (CapacityExceeded, ConfigInfeasible, InstanceConfig,
                        SchedulePolicy, SystemConfig)
from .trace import InstanceRecord, RequestRecord, ShardRecord, SimTrace
from .workload import Request

# Registration delay after migration so the onload phase is distinguishable.
_ONLOAD_DELAY = 1e-6

# Segments of at least this many steps are planned in one numpy pass
# (plan_steps_numpy), shorter ones step by step (plan_steps). Set on a 2-core
# host, Python 3.11, numpy 2.4, when the loop cost 0.25 us a step and the
# numpy pass 4 us plus 0.02 us a step; the inline loop, at about 0.08 us a
# step, now crosses the numpy pass near 40 steps.
_VECTOR_STEPS = 20

_WORKER_DONE = "worker_done"
_BATCH_END = "batch_end"
_STEP_END = "step_end"
_TRANSFER_END = "transfer_end"
_SWITCH_ONLOAD = "switch_onload"
_MONITOR = "monitor"
_ARRIVAL = "arrival"

# Completions and transfers settle before new work is considered at a tie.
_PRIO = {
    _WORKER_DONE: 0,
    _BATCH_END: 1,
    _STEP_END: 2,
    _TRANSFER_END: 3,
    _SWITCH_ONLOAD: 4,
    _MONITOR: 5,
    _ARRIVAL: 6,
}


# Roles that serve each stage, as plain tuples for cheap membership tests.
_SERVES = {
    "encode": tuple(r for r in StageRole if r.serves_encode),
    "prefill": tuple(r for r in StageRole if r.serves_prefill),
    "decode": tuple(r for r in StageRole if r.serves_decode),
}
# Whether an open request has yet to be placed on an instance of the role
# a switch would take one from; each is chosen once.
_STILL_NEEDS = {
    StageRole.PREFILL: lambda r: r.p_iid is None,
    StageRole.DECODE: lambda r: r.d_iid is None,
}
# Where a routed request records its instance per stage: _Req slot, record column.
_PLACED = {
    "encode": ("e_iid", "e_instance"),
    "prefill": ("p_iid", "p_instance"),
    "decode": ("d_iid", "d_instance"),
}


def irp_shard(patches: int, width: int) -> list[int]:
    """Balanced partition of one request's patches across ``width`` workers."""
    if width < 1:
        raise ValueError("shard width must be >= 1")
    if patches < 0:
        raise ValueError("patch count must be non-negative")
    base, rem = divmod(patches, width)
    return [base + 1] * rem + [base] * (width - rem)


def form_batch(queue: Sequence[int], max_batch: int, fits: Callable[[int], bool]) -> list[int]:
    """Longest FCFS prefix (up to ``max_batch``) whose members fit.

    The first request that does not fit stops the batch; later requests are
    never pulled ahead. ``fits`` is called once per accepted head and may
    commit cache reservations.
    """
    batch: list[int] = []
    for item in queue:
        if len(batch) >= max_batch or not fits(item):
            break
        batch.append(item)
    return batch


def plan_steps(cost: CostParams, batch: int, kv: int, factor: float, start: float,
               steps: int) -> list[float]:
    """End times of ``steps`` decode steps of ``batch`` sequences that hold
    ``kv`` KV tokens and gain one each a step, begun at ``start`` on an
    instance whose steps take ``factor`` times the one-GPU time: by the
    operations of :func:`decode_step_latency`, called once for its checks."""
    decode_step_latency(cost, batch, kv)
    base, per_kv = cost.decode_base + cost.decode_per_seq * batch, cost.decode_per_kv_token
    ends = [start] * steps
    t = start
    for step in range(steps):
        t = t + (base + per_kv * kv) * factor
        kv += batch
        ends[step] = t
    return ends


def plan_steps_numpy(cost: CostParams, batch: int, kv: int, factor: float, start: float,
                     steps: int) -> list[float]:
    """:func:`plan_steps` in one numpy pass, bit for bit: each duration is
    computed by the same operations, and ``add.accumulate`` folds the ends
    left to right from ``start + d0``, as the loop does. The first step is
    timed by :func:`decode_step_latency` as well, so that a count of its
    calls sees each segment planned this way once."""
    durations = decode_step_latencies(cost, batch, kv, steps) * factor
    durations[0] = start + decode_step_latency(cost, batch, kv) * factor
    return np.add.accumulate(durations).tolist()


class _Shape:
    """What every request of one (images, prompt, output) shape needs: its
    patches and tokens, its MM blocks, its KV blocks without and with the
    output tokens (indexed by ``serves_decode``), and, under the stage
    pools of version ``judged``, the members of each pool that hold it and
    its admission verdict."""
    __slots__ = ("patches", "mm_tokens", "total_tokens", "output_tokens", "mm_blocks",
                 "kv_blocks", "holders", "verdict", "judged")

    def __init__(self, model, req: Request, block_size: int):
        self.patches = sum(patches_for_image(model, res) for res in req.images)
        self.mm_tokens, self.total_tokens = tokens_for_request(model, req)
        self.output_tokens = req.output_tokens
        self.mm_blocks = blocks_for(self.mm_tokens, block_size)
        self.kv_blocks = (blocks_for(self.total_tokens, block_size),
                          blocks_for(self.total_tokens + req.output_tokens, block_size))
        self.holders: Optional[dict[str, list[_Instance]]] = None  # by stage, as the pools
        self.verdict: Optional[str] = None
        self.judged = 0  # pool versions count from 1


class _Req:
    __slots__ = ("req", "shape", "rec", "e_iid", "p_iid", "d_iid", "shards", "shards_run_done",
                 "ready_unsent", "emitted")

    def __init__(self, req: Request, shape: _Shape, rec: RequestRecord):
        self.req = req
        self.shape = shape
        self.rec = rec
        self.e_iid: Optional[int] = None
        self.p_iid: Optional[int] = None
        self.d_iid: Optional[int] = None
        self.shards: tuple[tuple[int, int], ...] = ()  # (worker, patches), once encoding
        self.shards_run_done = 0
        self.ready_unsent: list[int] = []
        self.emitted = 0


class _Instance:
    def __init__(self, iid: int, cfg: InstanceConfig, system: SystemConfig):
        self.iid = iid
        self.role = cfg.role
        self.tp = cfg.tp
        self.pp = cfg.pp
        self.max_batch = cfg.max_batch
        self.policy = cfg.policy
        self.state = "active"  # active | offloading | migrating
        self.queue: deque[int] = deque()
        self.running: Optional[tuple[int, ...]] = None  # the ids of the batch in flight
        # Patch and token sums over ``queue`` and over ``running``, kept in
        # step with them so that load reads never rescan a queue.
        self.queued_patches = 0
        self.queued_tokens = 0
        self.running_patches = 0
        self.running_tokens = 0
        # The open decode segment: its members and the end of each planned
        # step, empty while the instance is not stepping; ``serial`` tags
        # the segment's one live STEP_END.
        self.seg_rids: tuple[int, ...] = ()
        self.seg_ends: list[float] = []
        self.serial = 0
        self.resident: list[int] = []
        # KV tokens held by ``resident``: prompt plus tokens emitted so far,
        # kept in step with it so that a decode step never re-sums its batch.
        self.resident_kv = 0
        self.admit_wait: deque[int] = deque()
        self.mm: Optional[BlockManager] = None
        self.kv: Optional[BlockManager] = None
        self.record = InstanceRecord(iid=iid, initial_role=cfg.role)
        self.rebuild_caches(system)

    def rebuild_caches(self, system: SystemConfig) -> None:
        gpus = self.tp * self.pp
        free = system.hardware.gpu_memory * gpus - weights_bytes(system.model, self.role)
        if free <= 0:
            raise ConfigInfeasible(
                f"instance {self.iid} ({self.role.value}, {gpus} GPU) cannot hold its weights")
        # The role's stages, read by the cache-fit rule on every reservation.
        self.serves_encode = self.role.serves_encode
        self.serves_prefill = self.role.serves_prefill
        self.serves_decode = self.role.serves_decode
        # Decode-step slowdown of this instance's tp x pp layout.
        self.step_factor = parallel_factor(system.cost, self.tp, self.pp)
        self.mm = None
        self.kv = None
        if self.serves_encode or self.serves_prefill:
            self.mm = BlockManager(CacheKind.MM, system.block_size,
                                   system.mm_cache_tokens // system.block_size)
        if self.serves_prefill or self.serves_decode:
            per_block = kv_bytes_per_token(system.model) * system.block_size
            self.kv = BlockManager(CacheKind.KV, system.block_size,
                                   int(system.kv_fraction * free // per_block))

    def holds(self, shape: _Shape) -> bool:
        """The cache-fit rule: whether this instance's whole caches fit ``shape``."""
        return ((self.mm is None or shape.mm_blocks <= self.mm.total_blocks)
                and (self.kv is None
                     or shape.kv_blocks[self.serves_decode] <= self.kv.total_blocks))

    def kv_tokens(self, shape: _Shape) -> int:
        """KV tokens ``shape`` reserves here: its prompt, and its output if this serves decode."""
        if self.serves_decode:
            return shape.total_tokens + shape.output_tokens
        return shape.total_tokens


class _Sim:
    def __init__(self, config: SystemConfig, workload: Sequence[Request], seed: int):
        config.validate()
        self.system = config
        self.model = config.model
        self.hw = config.hardware
        self.cost = config.cost
        self.seed = seed
        self.insts = [_Instance(i, cfg, config) for i, cfg in enumerate(config.instances)]
        self.pools_version = 0
        self._rebuild_pools()

        self.kv_bpt = kv_bytes_per_token(self.model)
        self.mm_bpt = mm_bytes_per_token(self.model)

        self.heap: list = []
        self.seq = itertools.count()
        self.last_pop = 0.0

        self.chan_free: dict[tuple[int, int], float] = {}
        # Per size: the shards of (patches, encode width), the E→P wire time of patches.
        self.splits: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
        self.shard_wire: dict[int, float] = {}
        self.ep_wait: deque[int] = deque()
        self.pd_wait: deque[int] = deque()
        self.rr = {"encode": 0, "prefill": 0, "decode": 0}
        # Dispatch work: instances whose queue, batch, residents, caches or
        # role changed in this event, and whether a wait queue head may now
        # fit (a cache was freed or the pools changed).
        self.touched: set[int] = set()
        self.recheck_waits = False

        self.switch_rec: Optional[SwitchEventRecord] = None
        self.last_switch = float("-inf")
        self.switches: list[SwitchEventRecord] = []

        # Open requests (admitted, not yet complete) by id; every request's
        # trace record, which no decision reads.
        self.rs: dict[int, _Req] = {}
        self.records: dict[int, RequestRecord] = {}
        arrivals = []
        shapes: dict[tuple, _Shape] = {}
        last_arrival = float("-inf")
        for req in workload:
            if req.id in self.records:
                raise ValueError(f"duplicate request id {req.id}")
            if req.arrival_time < last_arrival:
                raise ValueError("workload must be sorted by arrival time")
            last_arrival = req.arrival_time
            key = (req.images, req.prompt_tokens, req.output_tokens)
            shape = shapes.get(key)
            if shape is None:
                shape = shapes[key] = _Shape(self.model, req, config.block_size)
            rec = RequestRecord(rid=req.id, arrival=req.arrival_time,
                                prompt_tokens=req.prompt_tokens, mm_tokens=shape.mm_tokens,
                                total_tokens=shape.total_tokens, output_tokens=req.output_tokens,
                                slo=req.slo)
            self.records[req.id] = rec
            arrivals.append(_Req(req, shape, rec))
        self.arrivals = iter(arrivals)  # those not yet pushed
        self.outstanding = len(self.records)

    # --- event plumbing -----------------------------------------------------

    def _push(self, t: float, kind: str, data: tuple) -> None:
        heapq.heappush(self.heap, (t, _PRIO[kind], next(self.seq), kind, data))

    def _push_arrival(self) -> None:
        r = next(self.arrivals, None)
        if r is not None:
            self._push(r.req.arrival_time, _ARRIVAL, (r,))

    def run(self) -> SimTrace:
        self._push_arrival()
        if self.system.role_switch is not None and self.records:
            self._push(self.system.role_switch.monitor_interval, _MONITOR, ())

        handlers = {
            _ARRIVAL: self._on_arrival,
            _WORKER_DONE: self._on_worker_done,
            _BATCH_END: self._on_batch_end,
            _STEP_END: self._on_step_end,
            _TRANSFER_END: self._on_transfer_end,
            _SWITCH_ONLOAD: self._on_switch_onload,
            _MONITOR: self._on_monitor,
        }
        insts = self.insts
        while self.heap:
            t, _, _, kind, data = heapq.heappop(self.heap)
            if kind == _STEP_END and data[1] != insts[data[0]].serial:
                continue  # the end of a segment that was cut short
            if t < self.last_pop - 1e-12:
                raise RuntimeError("event heap popped an event in the past")
            self.last_pop = t
            handlers[kind](t, *data)
            self._dispatch(t)

        return self._finalize()

    def _finalize(self) -> SimTrace:
        if self.outstanding != 0:
            raise RuntimeError(f"{self.outstanding} requests never reached a terminal state")
        for inst in self.insts:
            for manager in (inst.mm, inst.kv):
                if manager is not None and manager.used_blocks:
                    raise RuntimeError(
                        f"instance {inst.iid} leaked {manager.used_blocks} "
                        f"{manager.kind.value} blocks")
        instances = {inst.iid: inst.record for inst in self.insts}
        return SimTrace(requests=self.records, instances=instances,
                        switches=self.switches, meta={"seed": self.seed})

    # --- pools and loads ------------------------------------------------------

    def _rebuild_pools(self) -> None:
        """The active instances that serve each stage, in iid order, under a
        new version number, which voids the shapes' admission verdicts."""
        self.pools = {stage: [i for i in self.insts if i.state == "active" and i.role in roles]
                      for stage, roles in _SERVES.items()}
        self.pools_version += 1

    def _arrival_load(self, inst: _Instance) -> float:
        # outstanding work, in-flight batch included, so idle instances win
        load = inst.queued_patches + inst.running_patches
        if inst.role is not StageRole.ENCODE:
            load += inst.queued_tokens + inst.running_tokens
        return float(load)

    def _prefill_load(self, inst: _Instance) -> float:
        return float(inst.queued_tokens + inst.running_tokens)

    def _decode_load(self, inst: _Instance) -> float:
        return float(len(inst.resident) + len(inst.admit_wait))

    def _stage_loads(self) -> dict[StageRole, StageLoad]:
        loads: dict[StageRole, StageLoad] = {}
        for stage, role, per_inst in (
            ("encode", StageRole.ENCODE, lambda i: float(i.queued_patches)),
            ("prefill", StageRole.PREFILL, self._prefill_load),
            ("decode", StageRole.DECODE, self._decode_load),
        ):
            pool = [i for i in self.pools[stage] if i.role is role]
            entries = tuple((i.iid, per_inst(i)) for i in pool)
            total = sum(load for _, load in entries)
            if stage == "prefill":
                total += sum(self.rs[rid].shape.total_tokens for rid in self.ep_wait)
            elif stage == "decode":
                total += len(self.pd_wait)
            loads[role] = StageLoad(total=total, instances=entries)
        return loads

    def _enqueue(self, inst: _Instance, r: _Req, t: float) -> None:
        self._cut(inst, t)  # queued work is tried between decode steps
        inst.queue.append(r.req.id)
        inst.queued_patches += r.shape.patches
        inst.queued_tokens += r.shape.total_tokens
        self.touched.add(inst.iid)

    def _free(self, inst: _Instance, manager: BlockManager, rid: int) -> None:
        manager.free(rid)
        self.touched.add(inst.iid)
        self.recheck_waits = True

    # --- the cache-fit rule ------------------------------------------------------

    def _admission_reason(self, r: _Req) -> Optional[str]:
        """Why ``r`` can never be served, or None when every stage has an
        active instance that holds it. A switching instance counts for no
        stage: it is leaving its old role and has no caches for the new one.
        Only the pools change the verdict, so a shape is judged once per
        version of them."""
        shape = r.shape
        if shape.judged != self.pools_version:
            shape.verdict, shape.judged = self._judge(shape), self.pools_version
        return shape.verdict

    def _judge(self, shape: _Shape) -> Optional[str]:
        """The verdict under the current pools. Sets the shape's holders,
        which are the pools themselves when every active instance holds it."""
        if shape.total_tokens == 0:
            return "empty"
        if shape.total_tokens > self.model.max_context_tokens:
            return "context"
        holders = {stage: [i for i in pool if i.holds(shape)] for stage, pool in self.pools.items()}
        shape.holders = self.pools if holders == self.pools else holders
        if all(holders.values()):
            return None
        if any(i.serves_encode and shape.mm_blocks <= i.mm.total_blocks for i in self.insts):
            return "kv_capacity"
        return "mm_capacity"

    @staticmethod
    def _room(inst: _Instance, shape: _Shape, mm: bool, kv: bool) -> bool:
        """Whether ``inst`` has free blocks now for ``shape``'s MM tokens (if
        ``mm``) and the KV tokens it reserves there (if ``kv``)."""
        return ((not mm or inst.mm.can_allocate(shape.mm_tokens))
                and (not kv or inst.kv.can_allocate(inst.kv_tokens(shape))))

    def _reserve(self, inst: _Instance, r: _Req, mm: bool, kv: bool) -> bool:
        """Reserve what :meth:`_room` checks, all or nothing."""
        if not self._room(inst, r.shape, mm, kv):
            return False
        self._allocate(inst, r, mm, kv)
        return True

    @staticmethod
    def _allocate(inst: _Instance, r: _Req, mm: bool, kv: bool) -> None:
        """Take the blocks :meth:`_room` has found free."""
        if mm:
            inst.mm.allocate(r.req.id, r.shape.mm_tokens)
        if kv:
            inst.kv.allocate(r.req.id, inst.kv_tokens(r.shape))

    def _route(self, stage: str, r: _Req, load: Callable[[_Instance], float],
               mm: bool = False, kv: bool = False) -> Optional[_Instance]:
        """Assign ``r`` to an active ``stage`` instance that holds it and has
        room for the caches flagged, reserve them there, and record the
        choice; None when no instance qualifies. The policy is the pool's
        first instance's. Least-loaded takes the first of the lowest load, so
        ties go to the lowest iid; round-robin (FCFS) cycles over the
        qualifying instances by the stage's counter."""
        shape = r.shape
        if shape.judged != self.pools_version:
            self._admission_reason(r)  # judged again, and its holders with it
        fits, reserves = shape.holders[stage], mm or kv
        if reserves:
            room = self._room
            fits = [i for i in fits if room(i, shape, mm, kv)]
        if not fits:
            return None
        if self.pools[stage][0].policy is SchedulePolicy.LEAST_LOADED:
            inst = min(fits, key=load)
        else:
            inst = fits[self.rr[stage] % len(fits)]
            self.rr[stage] += 1
        if reserves:
            self._allocate(inst, r, mm, kv)
        slot, column = _PLACED[stage]
        setattr(r, slot, inst.iid)
        setattr(r.rec, column, inst.iid)
        return inst

    # --- event handlers ---------------------------------------------------------

    def _on_arrival(self, t: float, r: _Req) -> None:
        self._push_arrival()
        reason = self._admission_reason(r)
        if reason is not None:
            if not self.system.admission_control:
                raise CapacityExceeded(f"request {r.req.id} can never fit: {reason}")
            r.rec.rejected = reason
            self.outstanding -= 1
            return
        self.rs[r.req.id] = r
        inst = self._route("encode", r, self._arrival_load)
        if inst.serves_prefill:
            r.p_iid = r.rec.p_instance = inst.iid
        self._enqueue(inst, r, t)

    def _on_worker_done(self, t: float, items: list[tuple[int, int]]) -> None:
        last = len(items) - 1
        for n, (rid, shard_idx) in enumerate(items):
            r = self.rs[rid]
            r.rec.shards[shard_idx].end = t
            r.shards_run_done += 1
            if r.shards_run_done == len(r.shards):
                r.rec.encode_end = t
            r.ready_unsent.append(shard_idx)
            if r.p_iid is not None:  # prefill MM reserved: send as shards finish,
                if n == last or items[n + 1][0] != rid:  # a run of them in one send
                    self._send_ready_shards(r, t)
            elif r.shards_run_done == 1:
                # First shard done: reserve a prefill slot or wait in line.
                # A later shard finds the request already in ep_wait.
                if not self._try_reserve_prefill(r, t):
                    self.ep_wait.append(rid)

    def _on_batch_end(self, t: float, iid: int) -> None:
        inst = self.insts[iid]
        batch = inst.running
        inst.running = None
        inst.running_patches = inst.running_tokens = 0
        self.touched.add(iid)
        if not inst.serves_prefill:
            return  # encode batch: worker events already launched the transfers
        # prefill or fused encode+prefill: the first output token exists now
        for rid in batch:
            r = self.rs[rid]
            r.rec.prefill_end = t
            r.rec.first_token_time = t
            r.rec.token_times.append(t)
            self._free(inst, inst.mm, rid)
            if r.req.output_tokens == 1:
                self._free(inst, inst.kv, rid)
                self._complete(r, t)
            elif inst.serves_decode:  # monolithic: decode in place
                r.d_iid = iid
                r.rec.d_instance = iid
                self._admit_decode(inst, rid, t)
            else:
                if not self._try_reserve_decode(r, t):
                    self.pd_wait.append(rid)

    def _on_step_end(self, t: float, iid: int, serial: int) -> None:
        inst = self.insts[iid]
        self._emit(inst, inst.seg_ends)
        rids = inst.seg_rids
        inst.seg_rids = ()
        inst.seg_ends = []
        self.touched.add(iid)
        for rid in rids:
            r = self.rs[rid]
            if r.emitted == r.req.output_tokens - 1:
                self._free(inst, inst.kv, rid)
                inst.resident.remove(rid)
                inst.resident_kv -= r.shape.total_tokens + r.emitted
                self._complete(r, t)
        while inst.admit_wait and len(inst.resident) < inst.max_batch:
            self._reside(inst, inst.admit_wait.popleft())

    def _on_transfer_end(self, t: float, kind: str, rid: int) -> None:
        r = self.rs[rid]
        if kind == "ep":  # the request's last shard has arrived
            src = self.insts[r.e_iid]
            self._free(src, src.mm, rid)
            r.rec.ep_transfer_end = t
            self._enqueue(self.insts[r.p_iid], r, t)
        else:  # pd
            src = self.insts[r.p_iid]
            self._free(src, src.kv, rid)
            r.rec.pd_transfer_end = t
            self._admit_decode(self.insts[r.d_iid], rid, t)

    def _on_switch_onload(self, t: float, iid: int) -> None:
        inst = self.insts[iid]
        inst.role = self.switch_rec.target
        if self.system.role_max_batch:
            inst.max_batch = self.system.role_max_batch.get(inst.role, inst.max_batch)
        inst.rebuild_caches(self.system)
        inst.state = "active"
        self._rebuild_pools()
        self.touched.add(iid)
        self.recheck_waits = True
        inst.record.roles.append((t, inst.role))
        self.switch_rec.onload_done = t
        self.switches.append(self.switch_rec)
        self.switch_rec = None

    def _on_monitor(self, t: float) -> None:
        if self.outstanding <= 0:
            return
        params = self.system.role_switch
        if self.switch_rec is None:
            decision = monitor_and_decide(self._stage_loads(), params, t, self.last_switch)
            if decision is not None and not self._strands(decision):
                self._begin_switch(decision, t)
        self._push(t + params.monitor_interval, _MONITOR, ())

    # --- switching --------------------------------------------------------------

    def _strands(self, decision: SwitchDecision) -> bool:
        """Whether the switch would leave an open request that still needs
        the source role with no other instance of it that holds it."""
        if decision.source is StageRole.ENCODE:
            # Every encode instance has the same MM cache, which holds every
            # admitted request, and the controller never takes a role's last.
            return False
        rest = [i for i in self.insts
                if i.role is decision.source and i.iid != decision.instance_id]
        needs = _STILL_NEEDS[decision.source]
        return any(needs(r) and not any(i.holds(r.shape) for i in rest) for r in self.rs.values())

    def _begin_switch(self, decision: SwitchDecision, t: float) -> None:
        inst = self.insts[decision.instance_id]
        rec = SwitchEventRecord(time=t, instance_id=inst.iid,
                                source=decision.source, target=decision.target)
        self.switch_rec = rec
        self.last_switch = t
        inst.state = "offloading"
        self._rebuild_pools()
        if inst.role is StageRole.ENCODE and inst.queue:
            # Queued encode work holds no cache yet, so it can move to siblings.
            pending = list(inst.queue)
            inst.queue.clear()
            inst.queued_patches = inst.queued_tokens = 0
            for rid in pending:  # the offloading instance has left the pool
                r = self.rs[rid]
                self._enqueue(self._route("encode", r, self._arrival_load), r, t)
                rec.redistributed += 1
        # Prefill queues and decode residents hold transferred cache data and
        # therefore drain in place before the migration phase starts.

    def _maybe_finish_offload(self, inst: _Instance, t: float) -> None:
        if inst.state != "offloading":
            return
        if inst.running is not None or inst.seg_ends:
            return
        if inst.queue or inst.resident or inst.admit_wait:
            return
        # A reservation counts even when it holds no blocks: a text-only
        # request's MM reservation still has its encoded data on the way.
        if (inst.mm is not None and inst.mm.allocated) or \
           (inst.kv is not None and inst.kv.allocated):
            return
        # Migration takes a fixed time from here, so its end is known now.
        rec = self.switch_rec
        rec.offload_done = t
        inst.state = "migrating"
        rec.migration_done = t + migration_latency(self.cost, rec.source, rec.target)
        self._push(rec.migration_done + _ONLOAD_DELAY, _SWITCH_ONLOAD, (inst.iid,))

    # --- transfers ----------------------------------------------------------------

    def _schedule_transfer(self, src: int, dst: int, nbytes: float, ready: float) -> float:
        """Queue a transfer on the FIFO channel ``(src, dst)``; its end time."""
        key = (src, dst)
        start = max(ready, self.chan_free.get(key, 0.0))
        duration = transfer_latency(nbytes, self.system.transfer_channel, self.hw,
                                    self.cost.transfer_setup)
        self.chan_free[key] = start + duration
        return start + duration

    def _send_ready_shards(self, r: _Req, t: float) -> None:
        """Send the shards that are encoded and not yet sent, in turn on the
        request's E→P channel, as :meth:`_schedule_transfer` would. All of a
        request's shards share that FIFO channel, so the last one sent ends
        last: only it pushes a TRANSFER_END."""
        key, wire, records = (r.e_iid, r.p_iid), self.shard_wire, r.rec.shards
        end = self.chan_free.get(key, 0.0)
        for shard_idx in r.ready_unsent:
            patches = r.shards[shard_idx][1]
            if patches not in wire:
                wire[patches] = transfer_latency(
                    patches * self.model.tokens_per_patch * self.mm_bpt,
                    self.system.transfer_channel, self.hw, self.cost.transfer_setup)
            end = (end if end > t else t) + wire[patches]
            records[shard_idx].transfer_end = end
        self.chan_free[key] = end
        r.ready_unsent.clear()
        if r.shards_run_done == len(r.shards):
            self._push(end, _TRANSFER_END, ("ep", r.req.id))

    def _try_reserve_prefill(self, r: _Req, t: float) -> bool:
        if self._route("prefill", r, self._prefill_load, mm=True) is None:
            return False
        self._send_ready_shards(r, t)
        return True

    def _try_reserve_decode(self, r: _Req, t: float) -> bool:
        if self._route("decode", r, self._decode_load, kv=True) is None:
            return False
        end = self._schedule_transfer(r.p_iid, r.d_iid, r.shape.total_tokens * self.kv_bpt, t)
        self._push(end, _TRANSFER_END, ("pd", r.req.id))
        return True

    def _admit_decode(self, inst: _Instance, rid: int, t: float) -> None:
        self.touched.add(inst.iid)
        if len(inst.resident) < inst.max_batch:
            self._cut(inst, t)  # the next step's batch grows
            self._reside(inst, rid)
        else:
            inst.admit_wait.append(rid)

    def _reside(self, inst: _Instance, rid: int) -> None:
        r = self.rs[rid]
        inst.resident.append(rid)
        inst.resident_kv += r.shape.total_tokens + r.emitted

    def _complete(self, r: _Req, t: float) -> None:
        r.rec.completion_time = t
        del self.rs[r.req.id]
        self.outstanding -= 1

    # --- work starting ----------------------------------------------------------

    def _launch(self, inst: _Instance, batch: list[int]) -> tuple[int, int]:
        """Move ``batch`` from the head of the queue into the running slot;
        its patches and tokens."""
        patches = tokens = 0
        for rid in batch:
            inst.queue.popleft()
            r = self.rs[rid]
            patches += r.shape.patches
            tokens += r.shape.total_tokens
        inst.queued_patches -= patches
        inst.queued_tokens -= tokens
        inst.running = tuple(batch)
        inst.running_patches = patches
        inst.running_tokens = tokens
        return patches, tokens

    def _start_batch(self, inst: _Instance, t: float) -> None:
        """Start the longest queue prefix whose reservations succeed: an
        encode batch on an encode instance, otherwise a prefill batch, fused
        with encoding when the instance serves encode too."""
        encodes, prefills = inst.serves_encode, inst.serves_prefill
        batch = form_batch(inst.queue, inst.max_batch,
                           lambda rid: self._reserve(inst, self.rs[rid], encodes, prefills))
        if not batch:
            return
        if not prefills:
            self._start_encode(inst, batch, t)
            return
        patches, tokens = self._launch(inst, batch)
        enc_dur = 0.0
        if encodes:
            enc_dur = encode_latency(self.cost, patches, tp_width=inst.tp, batch_size=len(batch))
        pre_dur = prefill_latency(self.cost, max(1, tokens), inst.tp, inst.pp)
        for rid in batch:
            rec = self.rs[rid].rec
            if encodes:
                rec.encode_start = t
                rec.encode_end = t + enc_dur
            rec.prefill_start = t + enc_dur
        self._push(t + enc_dur + pre_dur, _BATCH_END, (inst.iid,))

    def _start_encode(self, inst: _Instance, batch: list[int], t: float) -> None:
        """Shard each request's patches across the instance's workers, and
        push one WORKER_DONE per distinct finish time, over its workers'
        (request, shard) items in worker id order."""
        width, splits = inst.tp, self.splits
        worker_load = [0] * width
        worker_items: list[list[tuple[int, int]]] = [[] for _ in range(width)]
        for rid in batch:
            r = self.rs[rid]
            key = (r.shape.patches, width)
            if key not in splits:  # text-only: one empty shard, which pays the base cost
                split = tuple((k, p) for k, p in enumerate(irp_shard(*key)) if p > 0)
                splits[key] = split or ((0, 0),)
            r.shards = splits[key]
            r.rec.encode_start = t
            r.rec.shards = [ShardRecord(worker=k, patches=p) for k, p in r.shards]
            for shard_idx, (k, p) in enumerate(r.shards):
                worker_load[k] += p
                worker_items[k].append((rid, shard_idx))
        done: dict[float, list[tuple[int, int]]] = {}
        runs: dict[tuple[int, int], float] = {}  # a worker's time, by (load, items)
        for load, items in zip(worker_load, worker_items):
            if items:  # a request puts at most one shard on a worker
                key = (load, len(items))
                if key not in runs:
                    runs[key] = encode_latency(self.cost, load, tp_width=1, batch_size=key[1])
                done.setdefault(t + runs[key], []).extend(items)
        for finish, items in done.items():
            self._push(finish, _WORKER_DONE, (items,))
        self._launch(inst, batch)
        self._push(max(done), _BATCH_END, (inst.iid,))

    def _start_step(self, inst: _Instance, t: float) -> None:
        """Open a segment: the run of decode steps from ``t`` through the
        first in which a member emits its last token, under one STEP_END.
        With prefill work queued the segment is one step, so that the queue
        head is retried after every step."""
        rids = tuple(inst.resident)
        n = len(rids)
        steps = 1
        if not inst.queue:
            rs = self.rs
            steps = min(rs[rid].req.output_tokens - 1 - rs[rid].emitted for rid in rids)
        plan = plan_steps if steps < _VECTOR_STEPS else plan_steps_numpy
        ends = plan(self.cost, n, inst.resident_kv, inst.step_factor, t, steps)
        inst.seg_rids = rids
        inst.seg_ends = ends
        self._push_step_end(inst, ends[-1])

    def _emit(self, inst: _Instance, ends: list[float]) -> None:
        """Give each member of ``inst``'s segment one token at each of ``ends``."""
        inst.resident_kv += len(ends) * len(inst.seg_rids)
        for rid in inst.seg_rids:
            r = self.rs[rid]
            r.emitted += len(ends)
            r.rec.token_times.extend(ends)

    def _cut(self, inst: _Instance, t: float) -> None:
        """Shorten ``inst``'s open segment to the step in flight at ``t``,
        whose batch or queue is about to change. Only events that pop after
        every STEP_END at ``t`` cut, so each step ending by ``t`` is done."""
        ends = inst.seg_ends
        if len(ends) < 2:
            return
        done = bisect_right(ends, t)
        if done == len(ends) - 1:
            return
        self._emit(inst, ends[:done])
        inst.seg_ends = [ends[done]]
        self._push_step_end(inst, ends[done])

    def _push_step_end(self, inst: _Instance, end: float) -> None:
        """Push the one live STEP_END of ``inst``'s segment. STEP_ENDs at the
        same time pop in iid order rather than push order: a segment's end is
        pushed when it opens or is cut, not when its last step starts."""
        inst.serial += 1
        heapq.heappush(self.heap, (end, _PRIO[_STEP_END], inst.iid, _STEP_END,
                                   (inst.iid, inst.serial)))

    # --- dispatch -----------------------------------------------------------------

    def _retry_waits(self, t: float) -> None:
        while self.ep_wait:
            r = self.rs[self.ep_wait[0]]
            if not self._try_reserve_prefill(r, t):
                break
            self.ep_wait.popleft()
        while self.pd_wait:
            r = self.rs[self.pd_wait[0]]
            if not self._try_reserve_decode(r, t):
                break
            self.pd_wait.popleft()

    def _start_work(self, inst: _Instance, t: float) -> None:
        if inst.state == "migrating":
            return
        if inst.running is not None or inst.seg_ends:
            return
        # Queued work (only encode and prefill roles queue) preempts decode
        # between steps; only decode roles hold residents.
        if inst.queue:
            self._start_batch(inst, t)
        if inst.running is None and inst.resident:
            self._start_step(inst, t)

    def _dispatch(self, t: float) -> None:
        """Start whatever the last event made possible.

        An instance can only become able to start work through an event
        that touches it, and a wait queue head that failed to reserve can
        only succeed after a cache free or a pool change, so only those are
        revisited. Instances start in iid order, as a full scan would.
        """
        if self.recheck_waits:
            self.recheck_waits = False
            if self.ep_wait or self.pd_wait:
                self._retry_waits(t)
        if self.touched:
            for iid in sorted(self.touched):
                self._start_work(self.insts[iid], t)
            self.touched.clear()
        # At most one switch is in flight, so only its instance can be offloading.
        if self.switch_rec is not None:
            inst = self.insts[self.switch_rec.instance_id]
            if inst.state == "offloading":
                self._maybe_finish_offload(inst, t)


def run_simulation(config: SystemConfig, workload: Sequence[Request],
                   seed: int = 0) -> SimTrace:
    """Execute ``config`` against ``workload`` and return the full trace.

    The engine is deterministic; ``seed`` is only recorded in the trace
    metadata so downstream artifacts can state their provenance.
    """
    return _Sim(config, workload, seed).run()
