import pytest

from disaggsim.controller import (ControllerParams, StageLoad, SwitchDecision,
                                  migration_latency, monitor_and_decide)
from disaggsim.costs import CostParams
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
        assert decision == SwitchDecision(instance_id=0, source=E, target=D)

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
    return run_simulation(preset.systems["epd"], workload, seed=preset.seed)


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
        # replay the role timeline and check every stage keeps an instance
        times = sorted({0.0}
                       | {s.offload_done for s in switched_trace.switches}
                       | {s.onload_done + 1e-9 for s in switched_trace.switches})
        for t in times:
            counts = {E: 0, P: 0, D: 0}
            for record in switched_trace.instances.values():
                counts[record.role_at(t)] += 1
            assert all(count >= 1 for count in counts.values()), (t, counts)

    def test_reaches_decode_majority(self, switched_trace):
        finals = [rec.role_at(float("inf")) for rec in switched_trace.instances.values()]
        assert finals.count(D) >= 3

    def test_disabled_controller_never_switches(self):
        import dataclasses
        preset = get_preset("switch-shifted")
        config = dataclasses.replace(preset.systems["epd"], role_switch=None)
        workload = preset.generate(preset.workload)
        trace = run_simulation(config, workload, seed=preset.seed)
        assert trace.switches == []
        assert trace.completed_count == len(workload)
