import gc
import json
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disaggsim import engine
from disaggsim.blocks import BlockManager, CacheKind
from disaggsim.costs import (CostParams, decode_step_latency, encode_latency, parallel_factor,
                             prefill_latency)
from disaggsim.engine import (_VECTOR_STEPS, form_batch, irp_shard, plan_steps,
                              plan_steps_numpy, run_simulation)
from disaggsim.models import HardwareSpec, ModelSpec, StageRole
from disaggsim.presets import get_preset
from disaggsim.simconfig import (CapacityExceeded, ConfigInfeasible, InstanceConfig,
                                 SchedulePolicy, SystemConfig)
from disaggsim.workload import Request


def req(rid, arrival=0.0, images=1, prompt=10, output=4, res=(100, 100)):
    return Request(id=rid, arrival_time=arrival, prompt_tokens=prompt,
                   images=tuple(res for _ in range(images)), output_tokens=output)


def inst(role, tp=1, max_batch=1, pp=1):
    return InstanceConfig(role=role, tp=tp, pp=pp, max_batch=max_batch)


def fast_hw(bandwidth=float("inf"), gpus=8):
    return HardwareSpec(gpu_memory=1e9, intra_node_bandwidth=bandwidth,
                        inter_node_bandwidth=min(bandwidth, 1e9), num_gpus=gpus)


def system(instances, model, hw, cost, **kwargs):
    return SystemConfig(instances=tuple(instances), hardware=hw, model=model,
                        cost=cost, **kwargs)


class TestIrpShard:
    def test_balanced_partition(self):
        assert irp_shard(10, 4) == [3, 3, 2, 2]

    def test_width_one_identity(self):
        assert irp_shard(10, 1) == [10]

    def test_zero_patches(self):
        assert irp_shard(0, 4) == [0, 0, 0, 0]

    @given(patches=st.integers(min_value=0, max_value=500),
           width=st.integers(min_value=1, max_value=16))
    @settings(max_examples=100, deadline=None)
    def test_conservation_and_balance(self, patches, width):
        shards = irp_shard(patches, width)
        assert len(shards) == width
        assert sum(shards) == patches
        assert max(shards) - min(shards) <= 1


class TestRoute:
    @staticmethod
    def _sim(toy_model, cost, policy, encoders=3, prefills=1):
        roles = ([StageRole.ENCODE] * encoders + [StageRole.PREFILL] * prefills
                 + [StageRole.DECODE])
        config = system([inst(role) for role in roles], toy_model, fast_hw(), cost,
                        policy=policy)
        sim = engine._Sim(config, [req(0)], 0)
        return sim, next(sim.arrivals)

    def test_round_robin_cycles_evenly(self, toy_model, simple_cost):
        sim, r = self._sim(toy_model, simple_cost, SchedulePolicy.FCFS)
        picks = [sim._route("encode", r, sim._arrival_load).iid for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_round_robin_name_reads_as_fcfs(self):
        assert SchedulePolicy("round_robin") is SchedulePolicy.FCFS
        assert [p.value for p in SchedulePolicy] == ["fcfs", "least_loaded"]

    def test_least_loaded_breaks_ties_by_lowest_id(self, toy_model, simple_cost):
        sim, r = self._sim(toy_model, simple_cost, SchedulePolicy.LEAST_LOADED)
        for i, patches in zip(sim.insts, (5, 2, 2)):
            i.queued_patches = patches
        assert sim._route("encode", r, sim._arrival_load).iid == 1

    def test_only_instances_with_room_qualify(self, toy_model, simple_cost):
        sim, r = self._sim(toy_model, simple_cost, SchedulePolicy.LEAST_LOADED,
                           encoders=1, prefills=2)
        sim.insts[1].queued_tokens = 99
        sim.insts[2].mm.free_blocks = 0
        assert sim._route("prefill", r, sim._prefill_load, mm=True).iid == 1
        assert (r.p_iid, r.rec.p_instance, sim.insts[1].mm.allocated) == (1, 1, {0: 2})

    def test_no_candidates_returns_none(self, toy_model, simple_cost):
        sim, r = self._sim(toy_model, simple_cost, SchedulePolicy.FCFS)
        sim.insts[3].mm.free_blocks = 0
        assert sim._route("prefill", r, sim._prefill_load, mm=True) is None
        assert r.p_iid is None and sim.rr["prefill"] == 0


class TestFormBatch:
    def test_takes_fcfs_prefix_up_to_max_batch(self):
        assert form_batch([1, 2, 3, 4, 5], 2, lambda _: True) == [1, 2]

    def test_stops_at_first_misfit_without_reordering(self):
        assert form_batch([1, 2, 3], 3, lambda rid: rid != 2) == [1]


# Coefficients with no short binary form, so that every sum and product rounds.
ROUNDING_COST = CostParams(decode_base=0.0123456789, decode_per_seq=0.00271828,
                           decode_per_kv_token=3.1415926e-7, tp_efficiency=0.83,
                           pp_fill_penalty=0.137)
# A config file may give the coefficients as JSON integers.
INTEGER_COST = CostParams(decode_base=1, decode_per_seq=2, decode_per_kv_token=3)


def per_step_ends(cost, batch, kv, factor, start, steps):
    """The reference plan: one :func:`decode_step_latency` call a step."""
    ends, t = [], start
    for step in range(steps):
        duration = decode_step_latency(cost, batch, kv + step * batch)
        duration *= factor
        t = t + duration
        ends.append(t)
    return ends


class TestPlanSteps:
    @pytest.mark.parametrize("steps", [1, 2, _VECTOR_STEPS - 1, _VECTOR_STEPS,
                                       _VECTOR_STEPS + 1, 500])
    @pytest.mark.parametrize("tp, pp", [(1, 1), (2, 1), (1, 2), (3, 2), (8, 4)])
    @pytest.mark.parametrize("batch, kv", [(1, 0), (7, 12_345), (64, 10**6)])
    @pytest.mark.parametrize("cost", [ROUNDING_COST, INTEGER_COST], ids=["rounding", "integer"])
    def test_plans_equal_the_per_step_loop_bit_for_bit(self, steps, tp, pp, batch, kv, cost):
        factor = parallel_factor(cost, tp, pp)
        args = (cost, batch, kv, factor, 1234.567891, steps)
        expected = [end.hex() for end in per_step_ends(*args)]
        for plan in (plan_steps, plan_steps_numpy):
            ends = plan(*args)
            assert all(type(end) is float for end in ends)
            assert [end.hex() for end in ends] == expected, plan.__name__

    @pytest.mark.parametrize("plan", [plan_steps, plan_steps_numpy])
    def test_a_plan_calls_the_scalar_form_once(self, plan, monkeypatch):
        """Once a segment, so that its argument checks still run."""
        calls = []
        def counted(*args):
            calls.append(args)
            return decode_step_latency(*args)
        monkeypatch.setattr(engine, "decode_step_latency", counted)
        plan(ROUNDING_COST, 7, 12_345, 1.0, 0.0, 500)
        assert calls == [(ROUNDING_COST, 7, 12_345)]
        with pytest.raises(ValueError, match="at least one sequence"):
            plan(ROUNDING_COST, 0, 12_345, 1.0, 0.0, 5)


class TestSinglePipelineClosedForm:
    def _run(self, toy_model, cost, bandwidth):
        hw = fast_hw(bandwidth)
        config = system([inst(StageRole.ENCODE, tp=2), inst(StageRole.PREFILL),
                         inst(StageRole.DECODE, max_batch=4)], toy_model, hw, cost)
        request = req(0, images=1, prompt=10, output=4)
        trace = run_simulation(config, [request])
        trace.validate()
        return trace, request

    def test_ttft_and_tpot_with_instant_transfers(self, toy_model, simple_cost):
        trace, request = self._run(toy_model, simple_cost, float("inf"))
        rec = trace.requests[0]
        # oracle: two balanced shards of 3 patches run concurrently, then prefill
        shard_latency = encode_latency(simple_cost, 3)
        prefill = prefill_latency(simple_cost, 34)
        assert rec.first_token_time - rec.arrival == pytest.approx(
            shard_latency + prefill, abs=1e-9)
        step = decode_step_latency(simple_cost, 1, 0)  # kv term disabled
        gaps = [b - a for a, b in zip(rec.token_times, rec.token_times[1:])]
        assert gaps == pytest.approx([step, step, step], abs=1e-12)

    def test_ttft_with_serialized_shard_transfers(self, toy_model, simple_cost):
        bandwidth = 1e8
        trace, request = self._run(toy_model, simple_cost, bandwidth)
        rec = trace.requests[0]
        shard_latency = encode_latency(simple_cost, 3)
        shard_bytes = 3 * toy_model.tokens_per_patch * toy_model.hidden_dim * 2
        transfer = shard_bytes / bandwidth
        prefill = prefill_latency(simple_cost, 34)
        # both shards finish together and share one channel: transfers serialize
        expected = shard_latency + 2 * transfer + prefill
        assert rec.first_token_time - rec.arrival == pytest.approx(expected, abs=1e-9)
        assert rec.ep_transfer_end == pytest.approx(shard_latency + 2 * transfer, abs=1e-9)

    def test_pd_transfer_delays_second_token_only(self, toy_model, simple_cost):
        bandwidth = 1e6
        trace, _ = self._run(toy_model, simple_cost, bandwidth)
        rec = trace.requests[0]
        kv_bytes = 34 * (2 * toy_model.num_layers * toy_model.kv_heads
                         * toy_model.head_dim * 2)
        assert rec.pd_transfer_end - rec.first_token_time == pytest.approx(
            kv_bytes / bandwidth, abs=1e-9)
        assert rec.token_times[0] == rec.first_token_time
        assert rec.token_times[1] >= rec.pd_transfer_end


class TestInterferenceOrdering:
    def test_aggregated_ttft_dominates_split_for_each_request(self, toy_model, simple_cost):
        hw = fast_hw()
        requests = [req(0, 0.0), req(1, 0.0)]
        aggregated = system([inst(StageRole.ENCODE_PREFILL), inst(StageRole.DECODE)],
                            toy_model, hw, simple_cost)
        split = system([inst(StageRole.ENCODE), inst(StageRole.PREFILL),
                        inst(StageRole.DECODE)], toy_model, hw, simple_cost)
        agg = run_simulation(aggregated, requests)
        dis = run_simulation(split, requests)
        enc = encode_latency(simple_cost, 6)
        pre = prefill_latency(simple_cost, 34)
        assert agg.requests[1].first_token_time == pytest.approx(2 * (enc + pre), abs=1e-9)
        assert dis.requests[1].first_token_time == pytest.approx(
            max(2 * enc, enc + pre) + pre, abs=1e-9)
        for rid in (0, 1):
            agg_ttft = agg.requests[rid].first_token_time - agg.requests[rid].arrival
            dis_ttft = dis.requests[rid].first_token_time - dis.requests[rid].arrival
            assert agg_ttft >= dis_ttft - 1e-12
        # the queued request is strictly worse when stages share an executor
        assert (agg.requests[1].first_token_time
                > dis.requests[1].first_token_time + 1e-9)


class TestAsynchronousTransfer:
    def test_next_encode_overlaps_previous_transfer(self, toy_model):
        cost = CostParams(enc_base=0.2, enc_per_patch=0.05, prefill_base=0.1,
                          prefill_per_token=0.0, prefill_quad=0.0,
                          decode_base=0.05, decode_per_seq=0.0,
                          decode_per_kv_token=0.0)
        # 24 multimodal tokens * 16 B = 384 B; 768 B/s makes the transfer 0.5 s
        hw = HardwareSpec(gpu_memory=1e9, intra_node_bandwidth=768.0,
                          inter_node_bandwidth=768.0, num_gpus=8)
        config = system([inst(StageRole.ENCODE), inst(StageRole.PREFILL),
                         inst(StageRole.DECODE, max_batch=4)], toy_model, hw, cost)
        trace = run_simulation(config, [req(0, 0.0, output=1), req(1, 0.0, output=1)])
        r0, r1 = trace.requests[0], trace.requests[1]
        assert r0.encode_end == pytest.approx(0.5)
        assert r0.ep_transfer_end == pytest.approx(1.0)
        # the second encode runs during the first transfer, not after it
        assert r1.encode_start == pytest.approx(0.5)
        assert r1.encode_end == pytest.approx(1.0)

    def test_full_destination_cache_defers_transfer_not_encode(self, toy_model, simple_cost):
        # prefill-side MM cache holds exactly one request; the second request
        # still encodes during the wait and its transfer fires the moment the
        # first prefill batch releases its blocks
        config = system([inst(StageRole.ENCODE), inst(StageRole.PREFILL),
                         inst(StageRole.DECODE, max_batch=4)], toy_model, fast_hw(),
                        simple_cost, mm_cache_tokens=32)
        trace = run_simulation(config, [req(0, 0.0, prompt=200, output=1),
                                        req(1, 0.01, output=1)])
        r0, r1 = trace.requests[0], trace.requests[1]
        assert r1.encode_end < r0.prefill_end  # encode overlapped the wait
        assert r1.ep_transfer_end == pytest.approx(r0.prefill_end, abs=1e-9)
        assert r1.prefill_start == pytest.approx(r0.prefill_end, abs=1e-9)

    def test_blocks_all_returned_after_run(self, toy_model, simple_cost):
        config = system([inst(StageRole.ENCODE, tp=2), inst(StageRole.PREFILL),
                         inst(StageRole.DECODE, max_batch=4)],
                        toy_model, fast_hw(1e8), simple_cost)
        trace = run_simulation(config, [req(i, 0.1 * i) for i in range(5)])
        assert trace.completed_count == 5

    def test_leaked_blocks_fail_the_run(self, toy_model, simple_cost, monkeypatch):
        config = system([inst(StageRole.ENCODE, tp=2), inst(StageRole.PREFILL),
                         inst(StageRole.DECODE, max_batch=4)],
                        toy_model, fast_hw(1e8), simple_cost)
        free = BlockManager.free

        def keep_kv(manager, request_id):
            if manager.kind is not CacheKind.KV:
                free(manager, request_id)

        monkeypatch.setattr(BlockManager, "free", keep_kv)
        with pytest.raises(RuntimeError, match=r"instance 1 leaked \d+ kv blocks"):
            run_simulation(config, [req(0, 0.0)])


class TestBatchFormation:
    def test_memory_bound_batch_never_reorders(self, simple_cost):
        model = ModelSpec(name="stub", encoder_params=10, llm_params=10, num_layers=1,
                          kv_heads=1, head_dim=1, hidden_dim=1, tokens_per_patch=16,
                          max_context_tokens=100_000,
                          patch_table={(1, 1): 1, (2, 2): 4}, bytes_per_param=2)
        config = system([inst(StageRole.ENCODE, max_batch=3), inst(StageRole.PREFILL),
                         inst(StageRole.DECODE, max_batch=8)], model, fast_hw(),
                        simple_cost, mm_cache_tokens=96, block_size=16)
        requests = [req(0, 0.0, res=(2, 2)),   # 64 tokens -> 4 blocks
                    req(1, 0.0, res=(2, 2)),   # does not fit next to request 0
                    req(2, 0.0, res=(1, 1))]   # 1 block, must not jump the queue
        trace = run_simulation(config, requests)
        starts = {rid: trace.requests[rid].encode_start for rid in (0, 1, 2)}
        assert starts[0] < starts[1]
        assert starts[2] >= starts[1]

    def test_queued_requests_batch_in_arrival_order(self, toy_model, simple_cost):
        # requests 1..4 queue up while request 0 encodes; the next batch takes
        # the first two of them, the following batch the rest
        config = system([inst(StageRole.ENCODE, max_batch=2), inst(StageRole.PREFILL),
                         inst(StageRole.DECODE, max_batch=8)], toy_model, fast_hw(),
                        simple_cost)
        requests = [req(i, 0.01 * i) for i in range(5)]
        trace = run_simulation(config, requests)
        first_batch_end = trace.requests[0].encode_end
        assert trace.requests[1].encode_start == first_batch_end
        assert trace.requests[2].encode_start == trace.requests[1].encode_start
        assert trace.requests[3].encode_start >= trace.requests[1].encode_end
        assert trace.requests[4].encode_start == trace.requests[3].encode_start


class TestContinuousBatching:
    def test_request_joins_next_decode_step(self, toy_model):
        cost = CostParams(enc_base=0.3, enc_per_patch=0.0, prefill_base=0.2,
                          prefill_per_token=0.0, prefill_quad=0.0,
                          decode_base=0.1, decode_per_seq=0.01,
                          decode_per_kv_token=0.0)
        config = system([inst(StageRole.ENCODE), inst(StageRole.PREFILL),
                         inst(StageRole.DECODE, max_batch=8)], toy_model, fast_hw(), cost)
        requests = [req(0, 0.0, images=0, output=10),
                    req(1, 0.05, images=0, output=3)]
        trace = run_simulation(config, requests)
        r0, r1 = trace.requests[0], trace.requests[1]
        assert r1.first_token_time == pytest.approx(0.8, abs=1e-9)
        # solo steps take 0.11 s; the joint step after admission takes 0.12 s
        assert r0.token_times[:4] == pytest.approx([0.5, 0.61, 0.72, 0.83], abs=1e-9)
        assert r1.token_times == pytest.approx([0.8, 0.95, 1.07], abs=1e-9)
        assert r0.token_times[4] == pytest.approx(0.95, abs=1e-9)


class TestMonolithic:
    def test_pending_prefill_preempts_decode_between_steps(self, toy_model):
        cost = CostParams(enc_base=0.3, enc_per_patch=0.0, prefill_base=0.2,
                          prefill_per_token=0.0, prefill_quad=0.0,
                          decode_base=0.1, decode_per_seq=0.01,
                          decode_per_kv_token=0.0)
        config = system([inst(StageRole.MONOLITHIC, max_batch=1)], toy_model,
                        fast_hw(), cost)
        requests = [req(0, 0.0, images=0, output=20), req(1, 0.35, images=0, output=2)]
        trace = run_simulation(config, requests)
        r0 = trace.requests[0]
        gaps = [b - a for a, b in zip(r0.token_times, r0.token_times[1:])]
        assert max(gaps) >= 0.5  # a fused encode+prefill batch ran in between
        assert trace.completed_count == 2


class TestAdmission:
    def test_oversized_request_rejected_and_recorded(self, toy_model, simple_cost):
        config = system([inst(StageRole.ENCODE), inst(StageRole.PREFILL),
                         inst(StageRole.DECODE, max_batch=8)], toy_model, fast_hw(),
                        simple_cost, mm_cache_tokens=32)
        requests = [req(0, 0.0, res=(200, 200)),  # 48 tokens exceed the 32-token cache
                    req(1, 0.1)]
        trace = run_simulation(config, requests)
        assert trace.requests[0].rejected == "mm_capacity"
        assert trace.requests[1].completed
        assert trace.completed_count + trace.rejected_count == 2

    def test_capacity_exceeded_raised_without_admission_control(self, toy_model, simple_cost):
        config = system([inst(StageRole.ENCODE), inst(StageRole.PREFILL),
                         inst(StageRole.DECODE, max_batch=8)], toy_model, fast_hw(),
                        simple_cost, mm_cache_tokens=32, admission_control=False)
        with pytest.raises(CapacityExceeded):
            run_simulation(config, [req(0, 0.0, res=(200, 200))])

    def test_context_overflow_rejected(self, toy_model, simple_cost):
        config = system([inst(StageRole.ENCODE), inst(StageRole.PREFILL),
                         inst(StageRole.DECODE, max_batch=8)], toy_model, fast_hw(),
                        simple_cost)
        trace = run_simulation(config, [req(0, 0.0, images=0, prompt=10_001)])
        assert trace.requests[0].rejected == "context"


class TestConfigValidation:
    def test_gpu_budget_exceeded(self, toy_model, simple_cost):
        config = system([inst(StageRole.ENCODE, tp=4), inst(StageRole.PREFILL, tp=4),
                         inst(StageRole.DECODE)], toy_model, fast_hw(gpus=8), simple_cost)
        with pytest.raises(ConfigInfeasible):
            run_simulation(config, [req(0)])

    def test_missing_decode_stage(self, toy_model, simple_cost):
        config = system([inst(StageRole.ENCODE), inst(StageRole.PREFILL)],
                        toy_model, fast_hw(), simple_cost)
        with pytest.raises(ConfigInfeasible):
            run_simulation(config, [req(0)])

    def test_role_family_mixture_rejected(self, toy_model, simple_cost):
        config = system([inst(StageRole.ENCODE), inst(StageRole.MONOLITHIC)],
                        toy_model, fast_hw(), simple_cost)
        with pytest.raises(ConfigInfeasible):
            run_simulation(config, [req(0)])


class TestDeterminismAndEdges:
    def test_empty_workload_empty_trace(self, toy_model, simple_cost):
        config = system([inst(StageRole.ENCODE), inst(StageRole.PREFILL),
                         inst(StageRole.DECODE)], toy_model, fast_hw(), simple_cost)
        trace = run_simulation(config, [])
        assert trace.requests == {}
        assert trace.horizon == 0.0

    def test_unsorted_workload_rejected(self, toy_model, simple_cost):
        config = system([inst(StageRole.ENCODE), inst(StageRole.PREFILL),
                         inst(StageRole.DECODE)], toy_model, fast_hw(), simple_cost)
        with pytest.raises(ValueError):
            run_simulation(config, [req(0, 1.0), req(1, 0.5)])

    def test_duplicate_ids_rejected(self, toy_model, simple_cost):
        config = system([inst(StageRole.ENCODE), inst(StageRole.PREFILL),
                         inst(StageRole.DECODE)], toy_model, fast_hw(), simple_cost)
        with pytest.raises(ValueError):
            run_simulation(config, [req(0, 0.0), req(0, 0.5)])

    def test_identical_inputs_identical_traces(self, toy_model, simple_cost, tmp_path):
        config = system([inst(StageRole.ENCODE, tp=2, max_batch=2),
                         inst(StageRole.PREFILL, max_batch=2),
                         inst(StageRole.PREFILL, max_batch=2),
                         inst(StageRole.DECODE, max_batch=4)],
                        toy_model, fast_hw(1e8), simple_cost)
        requests = [req(i, 0.07 * i, images=i % 3, output=3 + i % 4) for i in range(30)]
        first = run_simulation(config, requests, seed=5)
        second = run_simulation(config, requests, seed=5)
        first.write_events(tmp_path / "first.jsonl")
        second.write_events(tmp_path / "second.jsonl")
        assert (tmp_path / "first.jsonl").read_bytes() == (tmp_path / "second.jsonl").read_bytes()
        assert json.dumps(first.summary_rows()) == json.dumps(second.summary_rows())

    def test_images_given_as_a_list_simulate_as_a_tuple(self, toy_model, simple_cost):
        config = system([inst(StageRole.ENCODE, tp=2), inst(StageRole.PREFILL),
                         inst(StageRole.DECODE, max_batch=4)], toy_model, fast_hw(),
                        simple_cost)
        requests = [req(i, 0.1 * i, images=i % 3) for i in range(6)]
        listed = [replace(r, images=list(r.images)) for r in requests]
        assert all(type(r.images) is tuple for r in listed)
        assert run_simulation(config, listed) == run_simulation(config, requests)

    def test_text_only_request_flows_through_encode(self, toy_model, simple_cost):
        config = system([inst(StageRole.ENCODE, tp=2), inst(StageRole.PREFILL),
                         inst(StageRole.DECODE, max_batch=4)], toy_model, fast_hw(),
                        simple_cost)
        trace = run_simulation(config, [req(0, 0.0, images=0)])
        rec = trace.requests[0]
        assert rec.encode_end - rec.encode_start == pytest.approx(
            simple_cost.enc_base, abs=1e-12)
        assert rec.ep_transfer_end == pytest.approx(rec.encode_end, abs=1e-12)
        trace.validate()


@pytest.mark.parametrize("name", ["encode-heavy", "switch-shifted"])
def test_a_finished_simulation_is_freed_by_reference_counting(name):
    """No reference cycle runs through a simulation: with the cyclic
    collector off, nothing of it is left once ``run`` returns. A cycle, such
    as a closure over the simulation kept on it, would keep every run's
    engine state alive until the collector next ran. Covered: ``epd`` with
    its encode instance four GPUs wide (patch sharding), and switch-shifted
    with the role-switch controller on."""
    preset = get_preset(name)
    config = preset.systems["epd"]
    workload = preset.generate(preset.workload)
    gc.disable()
    try:
        sim = engine._Sim(config, workload, 0)
        alive = weakref.ref(sim)
        trace = sim.run()
        del sim
        assert alive() is None
    finally:
        gc.enable()
    assert trace.completed_count == len(workload)
    if name == "encode-heavy":
        assert config.instances[0].tp == 4
        assert all(len(rec.shards) == 4 for rec in trace.requests.values())
    else:
        assert config.role_switch is not None and trace.switches


def test_a_request_s_engine_state_is_kept_only_while_it_is_open():
    """At the middle arrival of an overloaded ``epd`` run, the only live
    ``_Req`` objects are the open requests' and the arriving one's: each is
    made as its arrival is drawn and dropped when its request closes."""
    preset = get_preset("encode-heavy")
    workload = preset.generate(replace(preset.workload, rate_lambda=2.0, num_requests=400))
    middle = workload[len(workload) // 2].id
    seen = []

    class Probe(engine._Sim):
        def _on_arrival(self, t, r):
            if r.req.id == middle:
                live = sum(isinstance(o, engine._Req) for o in gc.get_objects())
                seen.append((live, len(self.rs)))
            super()._on_arrival(t, r)

    Probe(preset.systems["epd"], workload, 0).run()
    [(live, open_requests)] = seen
    assert 0 < open_requests and live <= open_requests + 1
