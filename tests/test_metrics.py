from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disaggsim import metrics as metrics_module
from disaggsim.engine import run_simulation
from disaggsim.metrics import (Score, SweepPoint, goodput, goodput_from_sweep, measure,
                               request_metrics, score, sweep)
from disaggsim.models import StageRole
from disaggsim.simconfig import InstanceConfig, SystemConfig
from disaggsim.trace import RequestRecord, SimTrace
from disaggsim.workload import Slo, WorkloadSpec, generate_poisson


def record(rid=0, arrival=0.0, first=1.0, completion=2.0, output=5):
    tokens = [first] if output == 1 else [
        *(first + (completion - first) * i / (output - 1) for i in range(output - 1)),
        completion]
    return RequestRecord(rid=rid, arrival=arrival, output_tokens=output, token_times=tokens)


def rejected(rid=0):
    return RequestRecord(rid=rid, arrival=0.0, output_tokens=2, rejected="context")


def trace_of(*records) -> SimTrace:
    return SimTrace(requests={r.rid: r for r in records})


def attainment(trace: SimTrace, slo: Slo) -> float:
    return score(trace, slo).attainment


class TestTtft:
    def test_simple(self):
        assert record(first=1.4, arrival=0.0).ttft == pytest.approx(1.4)

    def test_queueing_included(self):
        # arrival 0, service starts 2, first token at 3: queueing counts
        assert record(arrival=0.0, first=3.0).ttft == pytest.approx(3.0)


class TestTpot:
    def test_uniform_gaps(self):
        rec = record(first=1.0, completion=1.2, output=3)  # tokens at 1.0, 1.1, 1.2
        assert rec.tpot == pytest.approx(0.1)

    def test_single_token_defined_zero(self):
        assert record(first=1.0, completion=1.0, output=1).tpot == 0.0


class TestAttainment:
    def test_all_meet(self):
        t = trace_of(*[record(rid=i, first=0.5, completion=1.0) for i in range(4)])
        assert attainment(t, Slo(1.0, 1.0)) == 1.0

    def test_nine_of_ten(self):
        records = [record(rid=i, first=0.5, completion=1.0) for i in range(9)]
        records.append(record(rid=9, first=5.0, completion=5.5))
        assert attainment(trace_of(*records), Slo(1.0, 1.0)) == pytest.approx(0.9)

    def test_zero_limits(self):
        t = trace_of(record())
        assert attainment(t, Slo(1e-12, 1e-12)) == 0.0

    def test_invariant_under_reordering(self):
        records = [record(rid=i, first=0.1 * i + 0.1, completion=0.1 * i + 0.6)
                   for i in range(6)]
        forward = attainment(trace_of(*records), Slo(0.45, 0.2))
        backward = attainment(trace_of(*reversed(records)), Slo(0.45, 0.2))
        assert forward == backward

    def test_rejected_requests_count_against_attainment(self):
        ok = record(rid=0, first=0.5, completion=1.0)
        assert attainment(trace_of(ok, rejected(rid=1)), Slo(1.0, 1.0)) == pytest.approx(0.5)


class TestScore:
    def test_every_figure(self):
        # TTFTs 0.5, 1.5 and 2.5, TPOTs 0.125, horizon 3, one rejection
        records = [record(rid=0, first=0.5, completion=1.0),
                   record(rid=1, first=1.5, completion=2.0),
                   record(rid=2, first=2.5, completion=3.0),
                   rejected(rid=3)]
        assert score(trace_of(*records), Slo(2.0, 0.2)) == Score(
            attainment=0.5, mean_ttft=1.5, p99_ttft=2.5, mean_tpot=0.125,
            completed=3, throughput=1.0)

    def test_means_add_in_id_order(self):
        # float addition is not associative: the sum runs in request id order
        records = [record(rid=i, first=f, completion=f + 1.0)
                   for i, f in enumerate([1.0, 1.0, 1e16])]
        assert (1.0 + 1.0) + 1e16 != (1e16 + 1.0) + 1.0
        assert score(trace_of(*reversed(records)), Slo(1.0, 1.0)).mean_ttft == (2.0 + 1e16) / 3

    def test_nothing_completed(self):
        inf = float("inf")
        assert score(trace_of(rejected()), Slo(1.0, 1.0)) == Score(0.0, inf, inf, inf, 0, 0.0)
        assert score(trace_of(), Slo(1.0, 1.0)) == Score(0.0, inf, inf, inf, 0, 0.0)


def point(rate: float, attainment: float) -> SweepPoint:
    return SweepPoint(rate, Score(attainment, 0.0, 0.0, 0.0, 0, 0.0))


class TestGoodput:
    def test_profile_matches_brute_force(self):
        points = [point(0.5, 1.0), point(1.0, 0.95), point(1.5, 0.4)]
        assert goodput_from_sweep(points, 0.9) == 1.0
        brute = max((p.rate for p in points if p.score.attainment >= 0.9), default=0.0)
        assert goodput_from_sweep(points, 0.9) == brute

    def test_all_pass_returns_max_rate(self):
        points = [point(r, 1.0) for r in (0.5, 1.0, 2.0)]
        assert goodput_from_sweep(points) == 2.0

    def test_all_fail_returns_zero(self):
        points = [point(r, 0.1) for r in (0.5, 1.0)]
        assert goodput_from_sweep(points) == 0.0

    def test_non_monotone_attainment_handled(self):
        points = [point(0.5, 0.8), point(1.0, 0.95)]
        assert goodput_from_sweep(points) == 1.0

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_stricter_threshold_never_increases_goodput(self, attainments):
        points = [point(i + 1.0, a) for i, a in enumerate(attainments)]
        assert goodput_from_sweep(points, 1.0) <= goodput_from_sweep(points, 0.9)

    def test_rate_grid_must_ascend(self, toy_model, toy_hw, simple_cost):
        config = SystemConfig(
            instances=(InstanceConfig(role=StageRole.MONOLITHIC),),
            hardware=toy_hw, model=toy_model, cost=simple_cost)
        spec = WorkloadSpec(rate_lambda=1.0, num_requests=3, images_per_request=0,
                            output_tokens=2, seed=1)
        with pytest.raises(ValueError):
            goodput(config, spec, [1.0, 0.5])


class TestSweepEndToEnd:
    @pytest.fixture
    def tiny(self, toy_model, toy_hw, simple_cost):
        """A one-pipeline system and a small image workload for it."""
        config = SystemConfig(
            instances=(InstanceConfig(role=StageRole.ENCODE),
                       InstanceConfig(role=StageRole.PREFILL),
                       InstanceConfig(role=StageRole.DECODE, max_batch=8)),
            hardware=toy_hw, model=toy_model, cost=simple_cost)
        spec = WorkloadSpec(rate_lambda=1.0, num_requests=20, prompt_tokens=10,
                            images_per_request=1, resolution=(100, 100),
                            output_tokens=4, seed=3)
        return config, spec

    def test_sweep_on_tiny_system(self, tiny):
        config, spec = tiny
        result = sweep(config, spec, [0.5, 1.0])
        assert len(result) == 2
        assert all(0.0 <= p.score.attainment <= 1.0 for p in result)
        again = sweep(config, spec, [0.5, 1.0])
        assert result == again

    def test_measure_scores_the_simulation_of_the_specs_requests(self, tiny):
        config, spec = tiny
        expected = score(run_simulation(config, generate_poisson(spec), seed=spec.seed),
                         spec.slo)
        assert measure(config, spec) == expected

    def test_a_tighter_slo_lowers_attainment(self, tiny):
        config, spec = tiny
        loose = sweep(config, spec, [0.5, 1.0])
        tight = sweep(config, replace(spec, slo=Slo(1e-6, 1e-6)), [0.5, 1.0])
        assert all(p.score.attainment == 1.0 for p in loose)
        assert all(p.score.attainment == 0.0 for p in tight)
        assert [p.score.mean_ttft for p in tight] == [p.score.mean_ttft for p in loose]

    def test_single_pipeline_ttft_matches_trace(self, toy_model, toy_hw, simple_cost):
        config = SystemConfig(
            instances=(InstanceConfig(role=StageRole.ENCODE),
                       InstanceConfig(role=StageRole.PREFILL),
                       InstanceConfig(role=StageRole.DECODE, max_batch=8)),
            hardware=toy_hw, model=toy_model, cost=simple_cost)
        from disaggsim.workload import Request
        request = Request(id=0, arrival_time=0.0, prompt_tokens=10,
                          images=((100, 100),), output_tokens=3)
        trace = run_simulation(config, [request])
        metrics = request_metrics(trace, Slo(10.0, 1.0))
        assert metrics[0].ttft == pytest.approx(
            trace.requests[0].first_token_time - trace.requests[0].arrival)

    @pytest.mark.parametrize("grid", [[1.0, 0.5], [1.0, 1.0], []])
    def test_sweep_rejects_a_bad_grid_before_simulating(self, grid, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("simulated before checking the grid")
        monkeypatch.setattr(metrics_module, "run_simulation", never)
        spec = WorkloadSpec(rate_lambda=1.0, num_requests=3)
        with pytest.raises(ValueError):
            sweep(None, spec, grid)
