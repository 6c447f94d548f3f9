import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disaggsim.capacity import (CapacityReport, DeploymentShape, LimitingFactor,
                                max_batch, max_images_per_request, max_kv_fraction)
from disaggsim.models import (HardwareSpec, ModelSpec, StageRole, builtin_model,
                              weights_bytes)
from disaggsim.presets import HEAVY_ENCODE_ACT_BYTES, HEAVY_PREFILL_ACT_BYTES

RES = (10, 10)


def toy(encoder=5, llm=5, hidden=1, bpp=2, patches=1, context=100_000,
        layers=1, kv_heads=1, head_dim=1) -> ModelSpec:
    return ModelSpec(name="toy", encoder_params=encoder, llm_params=llm,
                     num_layers=layers, kv_heads=kv_heads, head_dim=head_dim,
                     hidden_dim=hidden, tokens_per_patch=1,
                     max_context_tokens=context, patch_table={RES: patches},
                     bytes_per_param=bpp)


def hw(memory: float) -> HardwareSpec:
    return HardwareSpec(gpu_memory=memory, intra_node_bandwidth=1e9,
                        inter_node_bandwidth=1e9, num_gpus=1)


class TestMaxImages:
    def test_toy_linear_search_oracle(self):
        # weights 10 B, per-image cost 2 B, memory 20 B, encode worker.
        model = toy()
        shape = DeploymentShape(role=StageRole.ENCODE, kv_fraction=0.0)
        report = max_images_per_request(model, hw(20), shape, RES)
        assert report.feasible and report.value == 5
        # independent linear scan over the same arithmetic
        weights = 10
        per_image = 2
        oracle = max(n for n in range(1, 50) if weights + n * per_image <= 20)
        assert report.value == oracle

    def test_oom_when_weights_do_not_fit(self):
        model = toy()
        shape = DeploymentShape(role=StageRole.ENCODE)
        report = max_images_per_request(model, hw(5), shape, RES)
        assert not report.feasible
        assert report.label == "OOM"

    def test_internvl8_limited_by_context_length(self):
        model = builtin_model("internvl2-8b")
        shape = DeploymentShape(role=StageRole.PREFILL, kv_fraction=0.8,
                                act_bytes_per_token=HEAVY_PREFILL_ACT_BYTES)
        report = max_images_per_request(model, hw(82e9), shape, (4032, 3024),
                                        prompt_tokens=22)
        assert report.feasible and report.value == 19
        assert report.limiting_factor is LimitingFactor.CONTEXT_LENGTH


class TestMaxBatch:
    def test_toy_linear_search_oracle(self):
        # per-request cost 3 B on 9 B of free memory -> batch of 3
        model = toy()
        shape = DeploymentShape(role=StageRole.ENCODE, enc_act_bytes_per_token=1.0)
        report = max_batch(model, hw(19), shape, images_per_request=1, resolution=RES)
        assert report.feasible and report.value == 3
        oracle = max(b for b in range(1, 50) if b * 3 <= 9)
        assert report.value == oracle

    def test_oom_when_single_request_does_not_fit(self):
        model = toy()
        shape = DeploymentShape(role=StageRole.ENCODE, enc_act_bytes_per_token=1e9)
        report = max_batch(model, hw(19), shape, images_per_request=1, resolution=RES)
        assert report.label == "OOM"

    def test_encode_shape_dominates_aggregated_shape(self):
        model = builtin_model("minicpm-v-2.6")
        encode = DeploymentShape(role=StageRole.ENCODE,
                                 enc_act_bytes_per_token=HEAVY_ENCODE_ACT_BYTES)
        aggregated = DeploymentShape(role=StageRole.ENCODE_PREFILL, kv_fraction=0.8,
                                     act_bytes_per_token=HEAVY_PREFILL_ACT_BYTES,
                                     enc_act_bytes_per_token=HEAVY_ENCODE_ACT_BYTES)
        enc_report = max_batch(model, hw(82e9), encode, 10, (4032, 3024), 22)
        agg_report = max_batch(model, hw(82e9), aggregated, 10, (4032, 3024), 22)
        assert enc_report.value >= agg_report.value

    def test_heavy_profile_batch_ratio_at_least_ten(self):
        for name in ("minicpm-v-2.6", "internvl2-8b", "internvl2-26b"):
            model = builtin_model(name)
            encode = DeploymentShape(role=StageRole.ENCODE,
                                     enc_act_bytes_per_token=HEAVY_ENCODE_ACT_BYTES)
            aggregated = DeploymentShape(role=StageRole.ENCODE_PREFILL, kv_fraction=0.8,
                                         act_bytes_per_token=HEAVY_PREFILL_ACT_BYTES,
                                         enc_act_bytes_per_token=HEAVY_ENCODE_ACT_BYTES)
            enc_report = max_batch(model, hw(82e9), encode, 10, (4032, 3024), 22)
            agg_report = max_batch(model, hw(82e9), aggregated, 10, (4032, 3024), 22)
            agg_batch = agg_report.value if agg_report.feasible else 1
            assert enc_report.feasible
            assert enc_report.value >= 10 * agg_batch, name


class TestMaxKvFraction:
    def test_toy_grid_search_oracle(self):
        # non-KV demand is 40 of 100 free bytes -> 0.60
        model = toy(llm=50, bpp=1, hidden=2, patches=20)
        shape = DeploymentShape(role=StageRole.PREFILL)
        report = max_kv_fraction(model, hw(150), shape, images_per_request=1,
                                 resolution=RES)
        assert report.feasible
        assert report.value == pytest.approx(0.60)
        # grid-search oracle: pool holds 40 bytes of tokens, KV needs 40 bytes
        oracle = max(p / 100 for p in range(101)
                     if 40 <= (1 - p / 100) * 100 and 40 <= (p / 100) * 100)
        assert report.value == pytest.approx(oracle)

    def test_boundary_fraction_zero(self):
        # pool demand exactly equals free memory: only fraction 0 works
        model = toy(llm=50, bpp=1, hidden=2, patches=50, kv_heads=1)
        shape = DeploymentShape(role=StageRole.PREFILL)
        report = max_kv_fraction(model, hw(150), shape, 1, RES)
        assert report.feasible is False or report.value <= 0.0 + 1e-9

    def test_oocl_reported_for_over_long_context(self):
        model = toy(context=5, patches=1)
        shape = DeploymentShape(role=StageRole.PREFILL)
        report = max_kv_fraction(model, hw(1e6), shape, images_per_request=1,
                                 resolution=RES, prompt_tokens=10)
        assert report.label == "OOCL"

    def test_disaggregated_fraction_dominates_under_memory_pressure(self):
        # a starved profile: the aggregated shape OOMs (or halves its KV
        # share) while the prefill-only shape still reserves a large fraction
        model = builtin_model("internvl2-26b")
        act = 700_000.0
        prefill = DeploymentShape(role=StageRole.PREFILL, act_bytes_per_token=act)
        aggregated = DeploymentShape(role=StageRole.ENCODE_PREFILL,
                                     act_bytes_per_token=act)
        split = max_kv_fraction(model, hw(82e9), prefill, 10, (4032, 3024), 22)
        agg = max_kv_fraction(model, hw(82e9), aggregated, 10, (4032, 3024), 22)
        assert split.feasible and split.value >= 0.4
        assert (not agg.feasible) or split.value >= 2 * agg.value


class TestInvariants:
    def test_encode_free_memory_dominates_aggregated(self):
        for name in ("minicpm-v-2.6", "internvl2-8b", "internvl2-26b"):
            model = builtin_model(name)
            assert (weights_bytes(model, StageRole.ENCODE)
                    <= weights_bytes(model, StageRole.ENCODE_PREFILL))

    @given(memory=st.integers(min_value=12, max_value=500),
           per_image=st.integers(min_value=1, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_max_images_matches_linear_scan(self, memory, per_image):
        model = toy(hidden=per_image, bpp=2)  # per-image cost = 2 * per_image
        shape = DeploymentShape(role=StageRole.ENCODE)
        report = max_images_per_request(model, hw(memory), shape, RES)
        weights = 10
        cost = 2 * per_image
        feasible = [n for n in range(1, 600) if weights + n * cost <= memory]
        if feasible:
            assert report.feasible and report.value == max(feasible)
        else:
            assert not report.feasible

    @given(memory=st.integers(min_value=12, max_value=500),
           per_image=st.integers(min_value=1, max_value=8),
           images=st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_max_batch_matches_linear_scan(self, memory, per_image, images):
        model = toy(hidden=per_image, bpp=2)  # per-image cost = 2 * per_image
        shape = DeploymentShape(role=StageRole.ENCODE)
        report = max_batch(model, hw(memory), shape, images, RES)
        weights = 10
        cost = 2 * per_image * images
        feasible = [b for b in range(1, 600) if weights + b * cost <= memory]
        if feasible:
            assert report.feasible and report.value == max(feasible)
        else:
            assert not report.feasible

    def test_reports_are_deterministic(self):
        model = builtin_model("minicpm-v-2.6")
        shape = DeploymentShape(role=StageRole.PREFILL)
        first = max_batch(model, hw(82e9), shape, 10, (4032, 3024), 22)
        second = max_batch(model, hw(82e9), shape, 10, (4032, 3024), 22)
        assert first == second


def test_report_labels():
    assert CapacityReport("m", 5, True, LimitingFactor.MEMORY).label == "5"
    assert CapacityReport("m", None, False, LimitingFactor.MEMORY).label == "OOM"
    assert CapacityReport("m", None, False, LimitingFactor.CONTEXT_LENGTH).label == "OOCL"
