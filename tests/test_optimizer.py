from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disaggsim import metrics
from disaggsim.engine import run_simulation
from disaggsim.models import StageRole
from disaggsim.optimizer import (BudgetMode, Candidate, ConfigSpace, EmptyFeasibleSet,
                                 Metric, Objective, Strategy, TrialRecord, cost,
                                 evaluate, restricted_space, solve, space_from_dict)
from disaggsim.presets import optimizer_preset
from disaggsim.simconfig import InstanceConfig, SchedulePolicy, SystemConfig
from disaggsim.workload import Slo, WorkloadSpec, generate_poisson


def small_space() -> ConfigSpace:
    return ConfigSpace(
        gpu_budget=8, budget_mode=BudgetMode.AT_MOST,
        encode_gpus=(4, 5), prefill_gpus=(1, 2), decode_gpus=(1, 2),
        irp_choices=(True, False), encode_batches=(1,), prefill_batches=(1,),
        decode_batches=(8,))


def base_system(preset) -> SystemConfig:
    """The preset's model, hardware and cost with no instances yet."""
    return SystemConfig(instances=(), hardware=preset.hardware, model=preset.model,
                        cost=preset.cost)


def axis(values):
    """One small axis of a random space: 1-2 distinct values in draw order."""
    return st.lists(values, min_size=1, max_size=2, unique=True).map(tuple)


small_spaces = st.builds(
    ConfigSpace,
    gpu_budget=st.integers(3, 10), budget_mode=st.sampled_from(BudgetMode),
    encode_gpus=axis(st.integers(1, 4)), prefill_gpus=axis(st.integers(1, 3)),
    decode_gpus=axis(st.integers(1, 3)), irp_choices=axis(st.booleans()),
    encode_batches=axis(st.sampled_from([1, 2, 4])),
    prefill_batches=axis(st.sampled_from([1, 2])),
    decode_batches=axis(st.sampled_from([8, 32])),
    policies=axis(st.sampled_from(SchedulePolicy)))


class TestCostFormula:
    def test_hand_example(self):
        instances = [InstanceConfig(role=StageRole.PREFILL, tp=2, pp=1),
                     InstanceConfig(role=StageRole.DECODE, tp=1, pp=1),
                     InstanceConfig(role=StageRole.DECODE, tp=1, pp=2)]
        assert cost(instances, 1.0) == 5.0

    def test_empty_list(self):
        assert cost([], 1.0) == 0.0

    def test_five_e_two_p_one_d_is_eight(self):
        instances = ([InstanceConfig(role=StageRole.ENCODE)] * 5
                     + [InstanceConfig(role=StageRole.PREFILL)] * 2
                     + [InstanceConfig(role=StageRole.DECODE)])
        assert cost(instances, 1.0) == 8.0

    @given(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)),
                    min_size=0, max_size=8),
           st.floats(min_value=0.1, max_value=5.0))
    @settings(max_examples=50, deadline=None)
    def test_matches_direct_summation(self, widths, c):
        instances = [InstanceConfig(role=StageRole.DECODE, tp=tp, pp=pp)
                     for tp, pp in widths]
        assert cost(instances, c) == pytest.approx(c * sum(t * p for t, p in widths))


class TestSpace:
    def test_enumeration_is_deterministic(self):
        space = small_space()
        assert list(space.enumerate()) == list(space.enumerate())

    def test_size_small(self):
        assert small_space().size() <= 50

    @given(seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=30, deadline=None)
    def test_rejection_sampling_respects_exact_budget(self, seed):
        space = restricted_space(8)
        rng = np.random.default_rng(seed)
        candidate = space.sample(rng)
        assert candidate.gpus == 8

    @pytest.mark.parametrize("budget", [1, 2])
    def test_restricted_space_needs_a_gpu_per_stage(self, budget):
        with pytest.raises(ValueError, match=r"gpu_budget must be >= 3"):
            restricted_space(budget)

    def test_smallest_restricted_space_puts_one_gpu_on_each_stage(self):
        candidate = restricted_space(3).sample(np.random.default_rng(0))
        assert (candidate.encode_gpus, candidate.prefill_gpus, candidate.decode_gpus) == (1, 1, 1)

    def test_at_most_budget(self):
        space = small_space()
        for candidate in space.enumerate():
            assert candidate.gpus <= 8

    def test_round_robin_beside_fcfs_is_one_policy(self):
        space = space_from_dict({"gpu_budget": 8,
                                 "policies": ["fcfs", "round_robin", "least_loaded"]})
        assert space.policies == (SchedulePolicy.FCFS, SchedulePolicy.LEAST_LOADED)

    def test_irp_choice_shapes_encode_stage(self):
        space = small_space()
        wide = [c for c in space.enumerate() if c.encode_tp > 1]
        narrow = [c for c in space.enumerate() if c.encode_tp == 1]
        assert wide and narrow
        assert all(c.irp and c.encode_instances == 1 for c in wide)
        assert all(not c.irp and c.encode_instances == c.encode_gpus for c in narrow)

    @given(space=small_spaces, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_axis_points_deploy_as_described(self, space, seed):
        candidates = list(space.enumerate())
        rng = np.random.default_rng(seed)
        if not candidates:
            with pytest.raises(EmptyFeasibleSet):
                space.sample(rng, max_tries=50)
            return
        members = set(candidates)
        assert all(space.sample(rng) in members for _ in range(5))
        base = base_system(optimizer_preset())
        for candidate in candidates:
            system = candidate.deploy(base)
            assert system.gpu_count == candidate.gpus
            assert replace(system, instances=()) == base
            encode = [i for i in system.instances if i.role is StageRole.ENCODE]
            if candidate.irp:
                assert [i.tp for i in encode] == [candidate.encode_gpus]
            else:
                assert [i.tp for i in encode] == [1] * candidate.encode_gpus
            counts = {role: sum(i.role is role for i in system.instances)
                      for role in (StageRole.PREFILL, StageRole.DECODE)}
            assert counts == {StageRole.PREFILL: candidate.prefill_gpus,
                              StageRole.DECODE: candidate.decode_gpus}
            assert {i.policy for i in system.instances} == {candidate.policy}
            batches = {StageRole.ENCODE: candidate.encode_batch,
                       StageRole.PREFILL: candidate.prefill_batch,
                       StageRole.DECODE: candidate.decode_batch}
            assert all(i.max_batch == batches[i.role] for i in system.instances)


class TestScoreArithmetic:
    def test_beta_zero_ranks_by_metric_alone(self):
        f_values = [0.4, 0.9, 0.1]
        costs = [8.0, 8.0, 2.0]
        scores = [f - 0.0 * c for f, c in zip(f_values, costs)]
        assert scores.index(max(scores)) == f_values.index(max(f_values))

    def test_equal_metric_cheaper_wins_with_positive_beta(self):
        beta = 0.1
        score_big = 1.0 - beta * 8
        score_small = 1.0 - beta * 4
        assert score_small > score_big


def _tiny_preset():
    preset = optimizer_preset()
    spec = WorkloadSpec(rate_lambda=1.0, num_requests=25, prompt_tokens=22,
                        images_per_request=2, resolution=(4032, 3024),
                        output_tokens=5, seed=11, slo=Slo(1.40, 0.04))
    import dataclasses
    return dataclasses.replace(preset, workload=spec, rate_grid=(0.5, 1.0))


class TestSolve:
    def test_exhaustive_equals_brute_force_argmax(self):
        preset = _tiny_preset()
        space = small_space()
        objective = Objective(metric=Metric.NEG_MEAN_TTFT, beta=0.01)
        base = base_system(preset)
        result = solve(space, preset.workload, objective, base,
                       strategy=Strategy.EXHAUSTIVE, seed=1)
        brute = max(
            (evaluate(c.deploy(base), preset.workload, objective).score, i)
            for i, c in enumerate(space.enumerate()))
        assert result.best_score == pytest.approx(brute[0])
        assert len(result.log) == space.size()

    def test_each_deployed_system_is_simulated_once(self, monkeypatch):
        # IRP on and off with one encode GPU deploy the same system; exhaustive
        # search simulates it once.
        preset = _tiny_preset()
        spec = replace(preset.workload, num_requests=3, output_tokens=2)
        space = restricted_space(8)
        objective = Objective(metric=Metric.NEG_MEAN_TTFT)
        base = base_system(preset)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return run_simulation(*args, **kwargs)

        monkeypatch.setattr(metrics, "run_simulation", counted)
        result = solve(space, spec, objective, base, strategy=Strategy.EXHAUSTIVE, seed=1)
        assert (space.size(), len(calls), len(set(map(repr, calls)))) == (504, 432, 432)
        each = []
        for index, candidate in enumerate(space.enumerate()):
            r = evaluate(candidate.deploy(base), spec, objective)
            each.append(TrialRecord(index, candidate.describe(), r.score, r.f_value,
                                    r.cost_value, r.feasible))
        assert result.log == each

    def test_candidates_are_simulated_on_the_specs_seed(self, monkeypatch):
        # solve's seed drives the search; the requests and the simulation
        # seed come from the workload spec alone
        preset = _tiny_preset()
        spec = replace(preset.workload, num_requests=3, output_tokens=2)
        calls = []

        def recording(config, requests, seed=0):
            calls.append((requests, seed))
            return run_simulation(config, requests, seed=seed)

        monkeypatch.setattr(metrics, "run_simulation", recording)
        solve(small_space(), spec, Objective(metric=Metric.NEG_MEAN_TTFT),
              base_system(preset), strategy=Strategy.RANDOM, trials=2, seed=5)
        assert spec.seed != 5
        assert calls == [(generate_poisson(spec), spec.seed)] * 2

    def test_returned_score_dominates_log(self):
        preset = _tiny_preset()
        space = small_space()
        objective = Objective(metric=Metric.NEG_MEAN_TTFT, beta=0.0)
        result = solve(space, preset.workload, objective, base_system(preset),
                       strategy=Strategy.RANDOM, trials=8, seed=3)
        assert all(result.best_score >= rec.score for rec in result.log)
        assert result.best_candidate.gpus <= 8

    def test_solve_never_returns_an_infeasible_candidate(self):
        # mix feasible and over-budget candidates and check the winner's flag
        preset = _tiny_preset()
        space = ConfigSpace(gpu_budget=16, budget_mode=BudgetMode.AT_MOST,
                            encode_gpus=(4, 12), prefill_gpus=(1,), decode_gpus=(1,),
                            irp_choices=(True,), encode_batches=(1,),
                            prefill_batches=(1,), decode_batches=(8,))
        objective = Objective(metric=Metric.NEG_MEAN_TTFT, beta=0.0)
        result = solve(space, preset.workload, objective, base_system(preset),
                       strategy=Strategy.EXHAUSTIVE, seed=0)
        # the 12-GPU encode candidate exceeds the 8-GPU node and scores -inf
        assert any(not rec.feasible for rec in result.log)
        winner = [rec for rec in result.log
                  if rec.candidate == result.best_candidate.describe()]
        assert winner and all(rec.feasible for rec in winner)

    def test_random_search_with_full_trials_beats_median(self):
        preset = _tiny_preset()
        space = small_space()
        objective = Objective(metric=Metric.NEG_MEAN_TTFT, beta=0.0)
        base = base_system(preset)
        scores = sorted(
            evaluate(c.deploy(base), preset.workload, objective).score
            for c in space.enumerate())
        median = scores[len(scores) // 2]
        result = solve(space, preset.workload, objective, base,
                       strategy=Strategy.RANDOM, trials=space.size(), seed=2)
        assert result.best_score >= median

    def test_surrogate_runs_and_logs_every_trial(self):
        preset = _tiny_preset()
        space = small_space()
        objective = Objective(metric=Metric.NEG_MEAN_TTFT, beta=0.0)
        result = solve(space, preset.workload, objective, base_system(preset),
                       strategy=Strategy.SURROGATE, trials=10, seed=4)
        assert len(result.log) == 10
        assert result.best_score >= max(r.score for r in result.log[:1])

    def test_solve_is_deterministic(self):
        preset = _tiny_preset()
        space = small_space()
        objective = Objective(metric=Metric.NEG_MEAN_TTFT, beta=0.0)
        first = solve(space, preset.workload, objective, base_system(preset),
                      strategy=Strategy.SURROGATE, trials=6, seed=9)
        second = solve(space, preset.workload, objective, base_system(preset),
                       strategy=Strategy.SURROGATE, trials=6, seed=9)
        assert first.best_score == second.best_score
        assert [r.candidate for r in first.log] == [r.candidate for r in second.log]

    def test_empty_space_raises(self):
        space = ConfigSpace(gpu_budget=2, budget_mode=BudgetMode.EXACTLY,
                            encode_gpus=(4,), prefill_gpus=(4,), decode_gpus=(4,))
        preset = _tiny_preset()
        objective = Objective(metric=Metric.NEG_MEAN_TTFT)
        with pytest.raises(EmptyFeasibleSet):
            solve(space, preset.workload, objective, base_system(preset),
                  strategy=Strategy.EXHAUSTIVE, seed=0)

    def test_infeasible_candidates_logged_with_sentinel(self):
        preset = _tiny_preset()
        too_big = Candidate(encode_gpus=9, irp=False, encode_batch=1, prefill_gpus=1,
                            prefill_batch=1, decode_gpus=1, decode_batch=1)
        outcome = evaluate(too_big.deploy(base_system(preset)), preset.workload,
                           Objective(metric=Metric.NEG_MEAN_TTFT))
        assert outcome.score == float("-inf")
        assert not outcome.feasible


class TestObjective:
    def test_beta_must_be_non_negative(self):
        with pytest.raises(ValueError):
            Objective(beta=-0.1)

    def test_goodput_requires_rate_grid(self):
        preset = _tiny_preset()
        candidate = next(iter(small_space().enumerate()))
        with pytest.raises(ValueError):
            evaluate(candidate.deploy(base_system(preset)), preset.workload,
                     Objective(metric=Metric.GOODPUT), rate_grid=None)

    def test_throughput_metric_positive(self):
        preset = _tiny_preset()
        candidate = next(iter(small_space().enumerate()))
        outcome = evaluate(candidate.deploy(base_system(preset)), preset.workload,
                           Objective(metric=Metric.THROUGHPUT, beta=0.0))
        assert outcome.feasible and outcome.f_value > 0
