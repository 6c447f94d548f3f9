from dataclasses import replace

import pytest

from disaggsim.controller import (ControllerParams, StageLoad, SwitchEventRecord,
                                  migration_latency, monitor_and_decide)
from disaggsim.costs import CostParams
from disaggsim import engine
from disaggsim.engine import run_simulation
from disaggsim.models import StageRole
from disaggsim.presets import get_preset

E, P, D = StageRole.ENCODE, StageRole.PREFILL, StageRole.DECODE


def loads(e, p, d, e_insts=None, p_insts=None, d_insts=None):
    def entry(total, instances, start_id):
        if instances is None:
            instances = [(start_id, total)]
        return StageLoad(total=total, instances=tuple(instances))
    return {
        E: entry(e, e_insts, 0),
        P: entry(p, p_insts, 10),
        D: entry(d, d_insts, 20),
    }


def params(**kwargs):
    defaults = dict(monitor_interval=1.0, imbalance_threshold=3.0, smoothing=1.0,
                    min_instances_per_stage=1, cooldown=5.0)
    defaults.update(kwargs)
    return ControllerParams(**defaults)


class TestMonitorAndDecide:
    def test_balanced_queues_no_decision(self):
        state = loads(5, 5, 5,
                      e_insts=[(0, 5.0), (1, 0.0)],
                      p_insts=[(10, 5.0)],
                      d_insts=[(20, 5.0)])
        assert monitor_and_decide(state, params(), 100.0, 0.0) is None

    def test_idle_encode_hot_decode_moves_least_loaded_encoder(self):
        state = loads(0, 1, 80,
                      e_insts=[(0, 0.0), (1, 2.0), (2, 0.0), (3, 1.0), (4, 0.0)],
                      p_insts=[(10, 1.0)],
                      d_insts=[(20, 40.0), (21, 40.0)])
        decision = monitor_and_decide(state, params(), 100.0, 0.0)
        assert decision == SwitchEventRecord(time=100.0, instance_id=0, source=E, target=D)

    def test_source_at_min_instances_blocks_switch(self):
        state = loads(0, 1, 80,
                      e_insts=[(0, 0.0)],
                      p_insts=[(10, 1.0)],
                      d_insts=[(20, 80.0)])
        assert monitor_and_decide(state, params(), 100.0, 0.0) is None

    def test_cooldown_blocks_decision(self):
        state = loads(0, 1, 80,
                      e_insts=[(0, 0.0), (1, 0.0)],
                      p_insts=[(10, 1.0)],
                      d_insts=[(20, 80.0)])
        assert monitor_and_decide(state, params(cooldown=50.0), 10.0, 0.0) is None
        assert monitor_and_decide(state, params(cooldown=5.0), 10.0, 0.0) is not None

    def test_threshold_gates_trigger(self):
        state = loads(10, 12, 20,
                      e_insts=[(0, 5.0), (1, 5.0)],
                      p_insts=[(10, 12.0)],
                      d_insts=[(20, 20.0)])
        assert monitor_and_decide(state, params(imbalance_threshold=3.0), 9.0, 0.0) is None

    def test_stage_work_scale_normalizes_units(self):
        # 662 queued prefill tokens are one request, not an overload
        state = loads(0, 662, 2,
                      e_insts=[(0, 0.0), (1, 0.0)],
                      p_insts=[(10, 662.0)],
                      d_insts=[(20, 2.0)])
        scaled = params(stage_work_scale={E: 10.0, P: 662.0, D: 1.0},
                        imbalance_threshold=4.0, smoothing=4.0)
        assert monitor_and_decide(state, scaled, 50.0, 0.0) is None
        unscaled = params(imbalance_threshold=4.0, smoothing=4.0)
        assert monitor_and_decide(state, unscaled, 50.0, 0.0) is not None

    def test_tie_breaking_is_deterministic(self):
        state = loads(0, 0, 90,
                      e_insts=[(3, 1.0), (1, 1.0), (2, 1.0)],
                      p_insts=[(10, 0.0), (11, 0.0)],
                      d_insts=[(20, 90.0)])
        decision = monitor_and_decide(state, params(), 100.0, 0.0)
        # encode precedes prefill at equal load; lowest id wins the tie
        assert decision.source is E
        assert decision.instance_id == 1


class TestMigrationLatency:
    def test_encode_involved_uses_long_latency(self):
        cost = CostParams(switch_latency_e=0.7, switch_latency_pd=0.2)
        assert migration_latency(cost, E, D) == 0.7
        assert migration_latency(cost, D, E) == 0.7

    def test_p_to_d_uses_short_latency(self):
        cost = CostParams(switch_latency_e=0.7, switch_latency_pd=0.2)
        assert migration_latency(cost, P, D) == 0.2


class TestValidation:
    def test_threshold_must_exceed_one(self):
        with pytest.raises(ValueError):
            ControllerParams(imbalance_threshold=1.0)

    def test_interval_positive(self):
        with pytest.raises(ValueError):
            ControllerParams(monitor_interval=0.0)

    def test_scale_entries_positive(self):
        with pytest.raises(ValueError):
            ControllerParams(stage_work_scale={E: 0.0})


@pytest.fixture(scope="module")
def switched_trace():
    preset = get_preset("switch-shifted")
    workload = preset.generate(preset.workload)
    return run_simulation(preset.systems["epd"], workload, seed=preset.workload.seed)


def roles_at(trace, t: float) -> list[StageRole]:
    """Each instance's role at ``t``: the switch-shifted ``epd`` system's
    roles, with every switch onloaded by ``t`` replayed in order."""
    roles = [inst.role for inst in get_preset("switch-shifted").systems["epd"].instances]
    for switch in trace.switches:
        if switch.onload_done <= t:
            roles[switch.instance_id] = switch.target
    return roles


def active_roles_at(trace, t: float) -> list:
    """``roles_at(trace, t)``, with None for each instance that a switch has
    taken offline: an instance serves no stage from its switch's ``time``
    until ``onload_done``."""
    roles = roles_at(trace, t)
    for switch in trace.switches:
        if switch.time <= t < switch.onload_done:
            roles[switch.instance_id] = None
    return roles


class TestEngineIntegration:
    def test_switches_happen_and_phases_are_ordered(self, switched_trace):
        assert switched_trace.switches
        for record in switched_trace.switches:
            assert record.time <= record.offload_done
            assert record.offload_done < record.migration_done < record.onload_done

    def test_migration_duration_matches_stage_pair(self, switched_trace):
        preset = get_preset("switch-shifted")
        for record in switched_trace.switches:
            expected = migration_latency(preset.cost, record.source, record.target)
            assert record.migration_done - record.offload_done == pytest.approx(expected)

    def test_idle_instance_offloads_immediately(self, switched_trace):
        # encoders in this scenario are mostly drained when picked, so at
        # least one offload completes at the decision instant
        assert any(s.offload_done == s.time for s in switched_trace.switches)

    def test_conservation_across_switches(self, switched_trace):
        assert switched_trace.completed_count == len(switched_trace.requests)
        switched_trace.validate()

    def test_stage_coverage_never_drops_below_floor(self, switched_trace):
        # every stage keeps an active instance at each phase boundary, and
        # each switch leaves its source role at least the controller's floor
        switches = switched_trace.switches
        floor = get_preset("switch-shifted").systems["epd"].role_switch.min_instances_per_stage
        times = sorted({0.0} | {getattr(s, phase) for s in switches for phase in
                                ("time", "offload_done", "migration_done", "onload_done")})
        for t in times:
            active = active_roles_at(switched_trace, t)
            assert all(active.count(stage) >= 1 for stage in (E, P, D)), (t, active)
        for switch in switches:
            active = active_roles_at(switched_trace, switch.time)
            assert active.count(switch.source) >= floor, (switch, active)

    @pytest.mark.parametrize("caps", [None, {E: 2, P: 3, D: 7}], ids=["preset", "distinct"])
    def test_switched_instance_takes_its_target_roles_cap(self, caps):
        """An instance onloaded into a role takes the batch cap that role's
        instances are configured with: on the preset, 1 for encode and
        prefill and 5 for decode."""
        preset = get_preset("switch-shifted")
        config = preset.systems["epd"]
        if caps is None:
            caps = {E: 1, P: 1, D: 5}
        else:
            config = replace(config, instances=tuple(replace(i, max_batch=caps[i.role])
                                                     for i in config.instances))
        assert {i.role: i.max_batch for i in config.instances} == caps
        sim = engine._Sim(config, preset.generate(preset.workload), preset.workload.seed)
        assert {s.target for s in sim.run().switches} == {D}
        assert [i.max_batch for i in sim.insts] == [caps[i.role] for i in sim.insts]

    def test_reaches_decode_majority(self, switched_trace):
        assert roles_at(switched_trace, float("inf")).count(D) >= 3

    def test_disabled_controller_never_switches(self):
        import dataclasses
        preset = get_preset("switch-shifted")
        config = dataclasses.replace(preset.systems["epd"], role_switch=None)
        workload = preset.generate(preset.workload)
        trace = run_simulation(config, workload, seed=preset.workload.seed)
        assert trace.switches == []
        assert trace.completed_count == len(workload)
