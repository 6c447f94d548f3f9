import numpy as np
import pytest
from scipy import stats

from disaggsim.workload import (ParseError, Request, Slo, WorkloadSpec,
                                generate_poisson, generate_shifted, load_trace,
                                save_trace)


def spec(**kwargs) -> WorkloadSpec:
    defaults = dict(rate_lambda=1.0, num_requests=100, prompt_tokens=22,
                    images_per_request=2, resolution=(4032, 3024),
                    output_tokens=10, seed=7, slo=Slo(2.0, 0.05))
    defaults.update(kwargs)
    return WorkloadSpec(**defaults)


class TestPoisson:
    def test_exact_count_and_monotone_arrivals(self):
        requests = generate_poisson(spec(num_requests=250))
        assert len(requests) == 250
        arrivals = [r.arrival_time for r in requests]
        assert arrivals == sorted(arrivals)
        assert arrivals[0] >= 0

    def test_same_seed_identical(self):
        assert generate_poisson(spec()) == generate_poisson(spec())

    def test_different_seed_differs(self):
        assert generate_poisson(spec(seed=1)) != generate_poisson(spec(seed=2))

    def test_mean_gap_within_95_percent_envelope(self):
        requests = generate_poisson(spec(rate_lambda=1.0, num_requests=100, seed=3))
        arrivals = np.array([r.arrival_time for r in requests])
        gaps = np.diff(np.concatenate([[0.0], arrivals]))
        assert 0.7 <= gaps.mean() <= 1.3

    def test_single_request(self):
        requests = generate_poisson(spec(num_requests=1))
        assert len(requests) == 1
        assert requests[0].arrival_time >= 0

    def test_fields_follow_spec(self):
        requests = generate_poisson(spec())
        r = requests[0]
        assert r.prompt_tokens == 22
        assert len(r.images) == 2
        assert r.images[0] == (4032, 3024)
        assert r.output_tokens == 10
        assert r.slo == Slo(2.0, 0.05)

    def test_ks_against_exponential(self):
        requests = generate_poisson(spec(rate_lambda=2.0, num_requests=1000, seed=11))
        arrivals = np.array([r.arrival_time for r in requests])
        gaps = np.diff(np.concatenate([[0.0], arrivals]))
        result = stats.kstest(gaps, "expon", args=(0, 1 / 2.0))
        assert result.pvalue > 0.01


class TestShifted:
    def test_split_lengths(self):
        requests = generate_shifted(spec(rate_lambda=3.0), (10, 50), (90, 500))
        assert [r.output_tokens for r in requests[:10]] == [50] * 10
        assert [r.output_tokens for r in requests[10:]] == [500] * 90

    def test_degenerate_split_is_uniform(self):
        shifted = generate_shifted(spec(), (0, 50), (100, 10))
        uniform = generate_poisson(spec(output_tokens=10))
        assert shifted == uniform

    def test_boundary_preserved_across_seeds(self):
        for seed in (1, 2, 3):
            requests = generate_shifted(spec(seed=seed), (10, 50), (90, 500))
            assert requests[9].output_tokens == 50
            assert requests[10].output_tokens == 500

    def test_bad_split_rejected(self):
        with pytest.raises(ValueError):
            generate_shifted(spec(), (10, 50), (80, 500))


class TestTraceIO:
    def test_round_trip(self, tmp_path):
        requests = generate_poisson(spec(num_requests=20))
        path = tmp_path / "trace.csv"
        save_trace(path, requests)
        assert load_trace(path) == requests

    def test_mixed_resolutions_round_trip(self, tmp_path):
        slo = Slo(5.0, 0.1)
        requests = [
            Request(id=0, arrival_time=0.5, prompt_tokens=22,
                    images=((4032, 3024), (313, 234)), output_tokens=10, slo=slo),
            Request(id=1, arrival_time=0.75, prompt_tokens=4, images=(),
                    output_tokens=3, slo=slo),
            Request(id=2, arrival_time=1.0, prompt_tokens=8,
                    images=((787, 444), (4032, 3024), (787, 444)), output_tokens=2, slo=slo),
        ]
        path = tmp_path / "mixed.csv"
        save_trace(path, requests)
        assert load_trace(path) == requests

    def test_resolutions_must_agree_with_counts(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "id,arrival,prompt_tokens,num_images,width,height,output_tokens,"
            "ttft_limit,tpot_limit,resolutions\n"
            "0,0.5,22,2,4032,3024,10,2.6,0.04,4032x3024;313x234\n"
            "1,0.7,22,3,4032,3024,10,2.6,0.04,4032x3024;313x234\n")
        with pytest.raises(ParseError) as excinfo:
            load_trace(path)
        assert excinfo.value.line == 3

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert load_trace(path) == []

    def test_two_line_file_field_faithful(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text(
            "id,arrival,prompt_tokens,num_images,width,height,output_tokens,"
            "ttft_limit,tpot_limit\n"
            "0,0.5,22,2,4032,3024,10,2.6,0.04\n"
            "1,1.25,4,0,0,0,3,1.0,0.05\n")
        requests = load_trace(path)
        assert len(requests) == 2
        assert requests[0].images == ((4032, 3024), (4032, 3024))
        assert requests[1].arrival_time == 1.25
        assert requests[1].images == ()

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "id,arrival,prompt_tokens,num_images,width,height,output_tokens,"
            "ttft_limit,tpot_limit\n"
            "0,0.5,22,2,4032,3024,10,2.6,0.04\n"
            "1,not-a-number,4,0,0,0,3,1.0,0.05\n")
        with pytest.raises(ParseError) as excinfo:
            load_trace(path)
        assert excinfo.value.line == 3

    @pytest.mark.parametrize("arrival", ["nan", "inf", "0.25"])
    def test_bad_arrival_names_its_line(self, tmp_path, arrival):
        """A non-finite arrival, or one before the previous row's, is a parse
        error on its own line while arrivals are honoured."""
        path = tmp_path / "bad.csv"
        path.write_text(
            "id,arrival,prompt_tokens,num_images,width,height,output_tokens\n"
            "0,0.5,22,0,0,0,3\n"
            f"1,{arrival},22,0,0,0,3\n"
            "2,2.0,22,0,0,0,3\n")
        with pytest.raises(ParseError) as excinfo:
            load_trace(path, default_slo=Slo(5.0, 0.1))
        assert excinfo.value.line == 3

    @pytest.mark.parametrize("limits", ["nan,0.1", "5.0,nan"])
    def test_nan_slo_limit_names_its_line(self, tmp_path, limits):
        path = tmp_path / "bad.csv"
        path.write_text(
            "id,arrival,prompt_tokens,num_images,width,height,output_tokens,"
            "ttft_limit,tpot_limit\n"
            "0,0.5,22,0,0,0,3,5.0,0.1\n"
            f"1,1.0,22,0,0,0,3,{limits}\n")
        with pytest.raises(ParseError, match="slo limits must be positive") as excinfo:
            load_trace(path)
        assert excinfo.value.line == 3

    def test_unsorted_rows_allowed_when_arrivals_regenerated(self, tmp_path):
        path = tmp_path / "unsorted.csv"
        path.write_text(
            "id,arrival,prompt_tokens,num_images,width,height,output_tokens\n"
            "0,0.5,22,0,0,0,3\n"
            "1,0.25,22,0,0,0,3\n"
            "2,0.25,22,0,0,0,3\n")
        with pytest.raises(ParseError):
            load_trace(path, default_slo=Slo(5.0, 0.1))
        regenerated = load_trace(path, default_slo=Slo(5.0, 0.1), rate_lambda=2.0, seed=1)
        assert [r.id for r in regenerated] == [0, 1, 2]

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("id,arrival\n0,0.5\n")
        with pytest.raises(ParseError):
            load_trace(path)

    def test_regenerated_arrivals(self, tmp_path):
        requests = generate_poisson(spec(num_requests=10))
        path = tmp_path / "trace.csv"
        save_trace(path, requests)
        regenerated = load_trace(path, rate_lambda=5.0, seed=3)
        arrivals = [r.arrival_time for r in regenerated]
        assert arrivals == sorted(arrivals)
        assert arrivals != [r.arrival_time for r in requests]


class TestValidation:
    def test_request_rejects_zero_output(self):
        with pytest.raises(ValueError):
            Request(id=0, arrival_time=0.0, prompt_tokens=1, images=(),
                    output_tokens=0, slo=Slo(1.0, 1.0))

    def test_request_rejects_negative_arrival(self):
        with pytest.raises(ValueError):
            Request(id=0, arrival_time=-1.0, prompt_tokens=1, images=(),
                    output_tokens=1, slo=Slo(1.0, 1.0))

    @pytest.mark.parametrize("arrival", [float("nan"), float("inf")])
    def test_request_rejects_non_finite_arrival(self, arrival):
        with pytest.raises(ValueError, match="arrival_time must be finite"):
            Request(id=0, arrival_time=arrival, prompt_tokens=1, images=(),
                    output_tokens=1, slo=Slo(1.0, 1.0))

    @pytest.mark.parametrize("slo", [Slo(float("nan"), 1.0), Slo(1.0, float("nan")),
                                     Slo(0.0, 1.0), Slo(1.0, -1.0)])
    def test_request_rejects_nan_or_non_positive_slo_limit(self, slo):
        with pytest.raises(ValueError, match="slo limits must be positive"):
            Request(id=0, arrival_time=0.0, prompt_tokens=1, images=(),
                    output_tokens=1, slo=slo)

    def test_request_takes_an_infinite_slo_limit_as_none(self):
        request = Request(id=0, arrival_time=0.0, prompt_tokens=1, images=(),
                          output_tokens=1, slo=Slo(float("inf"), float("inf")))
        assert request.slo == Slo(float("inf"), float("inf"))

    def test_spec_requires_resolution_for_images(self):
        with pytest.raises(ValueError):
            WorkloadSpec(rate_lambda=1.0, num_requests=1, images_per_request=2)

    def test_spec_rejects_zero_rate(self):
        with pytest.raises(ValueError):
            WorkloadSpec(rate_lambda=0.0, num_requests=1)
