import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from disaggsim.costs import (Channel, CostParams, decode_step_latencies, decode_step_latency,
                             encode_latency, pp_factor, prefill_latency, tp_speedup,
                             transfer_latency)
from disaggsim.models import HardwareSpec


class TestEncodeLatency:
    def test_hand_value(self):
        params = CostParams(enc_base=0.1, enc_per_patch=0.05)
        assert encode_latency(params, 10, tp_width=1) == pytest.approx(0.6)

    def test_empty_batch_costs_nothing(self):
        params = CostParams()
        assert encode_latency(params, 0, batch_size=0) == 0.0

    def test_zero_patches_nonempty_batch_pays_base(self):
        params = CostParams(enc_base=0.25, enc_per_patch=0.1)
        assert encode_latency(params, 0, batch_size=1) == pytest.approx(0.25)

    def test_halving_patches_strictly_faster(self):
        params = CostParams(enc_base=0.1, enc_per_patch=0.05)
        assert encode_latency(params, 5) < encode_latency(params, 10)

    def test_heaviness_multiplier_scales_patch_term(self):
        base = CostParams(enc_base=0.0, enc_per_patch=0.1)
        heavy = CostParams(enc_base=0.0, enc_per_patch=0.1, encode_heaviness=1.2)
        assert encode_latency(heavy, 10) == pytest.approx(1.2 * encode_latency(base, 10))

    def test_tensor_parallel_division(self):
        params = CostParams(enc_base=0.1, enc_per_patch=0.05, tp_efficiency=1.0)
        assert encode_latency(params, 10, tp_width=2) == pytest.approx(0.3)


class TestPrefillLatency:
    def test_linear_only_hand_value(self):
        params = CostParams(prefill_base=0.0, prefill_per_token=0.001, prefill_quad=0.0)
        assert prefill_latency(params, 100) == pytest.approx(0.1)

    def test_minimal_token(self):
        params = CostParams(prefill_base=0.2, prefill_per_token=0.01, prefill_quad=0.001)
        assert prefill_latency(params, 1) == pytest.approx(0.2 + 0.01 + 0.001)

    def test_superlinear_with_quadratic_term(self):
        params = CostParams(prefill_base=0.0, prefill_per_token=1e-3, prefill_quad=1e-6)
        assert prefill_latency(params, 2000) > 2 * prefill_latency(params, 1000)

    def test_affine_when_quad_zero(self):
        params = CostParams(prefill_base=0.5, prefill_per_token=2e-3, prefill_quad=0.0)
        slopes = {
            prefill_latency(params, t + 100) - prefill_latency(params, t)
            for t in (1, 500, 5000)
        }
        assert max(slopes) - min(slopes) < 1e-12

    def test_requires_at_least_one_token(self):
        with pytest.raises(ValueError):
            prefill_latency(CostParams(), 0)


class TestDecodeStepLatency:
    def test_single_sequence_no_kv(self):
        params = CostParams(decode_base=0.04, decode_per_seq=0.01)
        assert decode_step_latency(params, 1, 0) == pytest.approx(0.05)

    def test_hand_value(self):
        params = CostParams(decode_base=0.01, decode_per_seq=0.002,
                            decode_per_kv_token=1e-6)
        assert decode_step_latency(params, 8, 10_000) == pytest.approx(0.036)

    def test_batch_term_is_linear(self):
        params = CostParams(decode_base=0.01, decode_per_seq=0.002,
                            decode_per_kv_token=0.0)
        delta = decode_step_latency(params, 16, 0) - decode_step_latency(params, 8, 0)
        assert delta == pytest.approx(0.002 * 8)

    # A config file may give any coefficient as a JSON integer.
    @given(batch=st.integers(1, 64), kv=st.integers(0, 10**6), steps=st.integers(0, 600),
           coefficients=st.tuples(*[st.one_of(st.floats(0, 1, allow_subnormal=False),
                                              st.integers(0, 1000))] * 3))
    @example(batch=3, kv=10**6, steps=40, coefficients=(1, 0, 0))
    @example(batch=3, kv=10**6, steps=40, coefficients=(1, 2, 3))
    @settings(max_examples=100, deadline=None)
    def test_latencies_equal_the_scalar_form_element_for_element(self, batch, kv, steps,
                                                                  coefficients):
        base, per_seq, per_kv = coefficients
        params = CostParams(decode_base=base, decode_per_seq=per_seq, decode_per_kv_token=per_kv)
        vector = decode_step_latencies(params, batch, kv, steps)
        assert vector.tolist() == [decode_step_latency(params, batch, kv + k * batch)
                                   for k in range(steps)]

    def test_latencies_validate_like_the_scalar_form(self):
        with pytest.raises(ValueError, match="at least one sequence"):
            decode_step_latencies(CostParams(), 0, 0, 5)
        with pytest.raises(ValueError, match="non-negative"):
            decode_step_latencies(CostParams(), 1, -1, 5)


class TestTransferLatency:
    def test_zero_bytes_is_setup_only(self, toy_hw):
        assert transfer_latency(0, Channel.INTRA, toy_hw, setup=0.003) == pytest.approx(0.003)

    def test_one_gb_over_100gbps(self):
        hw = HardwareSpec(gpu_memory=1e9, intra_node_bandwidth=100e9,
                          inter_node_bandwidth=100e9, num_gpus=1)
        assert transfer_latency(1e9, Channel.INTRA, hw) == pytest.approx(0.01)

    def test_inter_never_faster_than_intra(self, toy_hw):
        for nbytes in (0, 1e3, 1e6, 1e9):
            assert (transfer_latency(nbytes, Channel.INTER, toy_hw)
                    >= transfer_latency(nbytes, Channel.INTRA, toy_hw))

    def test_kv_handoff_of_1302_tokens_takes_1_7ms(self):
        # 1302 tokens x 131072 B/token over 100 GB/s
        hw = HardwareSpec(gpu_memory=1e9, intra_node_bandwidth=100e9,
                          inter_node_bandwidth=100e9, num_gpus=1)
        latency = transfer_latency(1302 * 131072, Channel.INTRA, hw)
        assert latency == pytest.approx(1.70656e-3, rel=1e-4)


class TestParallelism:
    @given(width=st.integers(min_value=1, max_value=64),
           eff=st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_tp_speedup_never_superlinear(self, width, eff):
        params = CostParams(tp_efficiency=eff)
        assert 1.0 <= tp_speedup(params, width) <= width + 1e-12

    def test_pp_factor_identity_at_one(self):
        assert pp_factor(CostParams(), 1) == pytest.approx(1.0)

    def test_pp_factor_includes_fill_penalty(self):
        params = CostParams(pp_fill_penalty=0.1)
        assert pp_factor(params, 2) == pytest.approx(1.1 / 2)


class TestMonotonicity:
    @given(load_a=st.integers(min_value=0, max_value=10_000),
           load_b=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_all_latencies_monotone_in_load(self, load_a, load_b):
        params = CostParams()
        lo, hi = sorted((load_a, load_b))
        assert encode_latency(params, lo) <= encode_latency(params, hi)
        assert prefill_latency(params, lo + 1) <= prefill_latency(params, hi + 1)
        assert decode_step_latency(params, lo + 1, 0) <= decode_step_latency(params, hi + 1, 0)
        assert decode_step_latency(params, 1, lo) <= decode_step_latency(params, 1, hi)


class TestValidationAndCalibration:
    def test_rejects_negative_coefficients(self):
        with pytest.raises(ValueError):
            CostParams(enc_base=-0.1)

    def test_rejects_bad_tp_efficiency(self):
        with pytest.raises(ValueError):
            CostParams(tp_efficiency=0.0)
