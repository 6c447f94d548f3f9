import dataclasses

import pytest

from disaggsim.models import (ModelSpec, StageRole, UnknownResolution,
                              builtin_catalog, builtin_model, kv_bytes_per_token,
                              load_catalog, mm_bytes_per_token, patches_for_image,
                              tokens_for_request, weights_bytes)


@dataclasses.dataclass
class FakeRequest:
    images: tuple
    prompt_tokens: int


class TestWeightsBytes:
    def test_minicpm_encode_reduction_is_95_percent(self):
        model = builtin_model("minicpm-v-2.6")
        reduction = 1 - weights_bytes(model, StageRole.ENCODE) / weights_bytes(
            model, StageRole.MONOLITHIC)
        assert reduction == pytest.approx(0.95, abs=1e-12)

    def test_internvl8_encode_reduction(self):
        model = builtin_model("internvl2-8b")
        reduction = 1 - weights_bytes(model, StageRole.ENCODE) / weights_bytes(
            model, StageRole.MONOLITHIC)
        assert reduction == pytest.approx(0.9625, abs=1e-12)

    def test_monolithic_is_additive(self, toy_model):
        total = weights_bytes(toy_model, StageRole.ENCODE) + weights_bytes(
            toy_model, StageRole.PREFILL)
        assert total == weights_bytes(toy_model, StageRole.MONOLITHIC)

    def test_encode_plus_prefill_equals_monolithic_for_all_builtins(self):
        for model in builtin_catalog().values():
            assert (weights_bytes(model, StageRole.ENCODE)
                    + weights_bytes(model, StageRole.PREFILL)
                    == weights_bytes(model, StageRole.MONOLITHIC))

    def test_internvl26_raw_arithmetic_vs_overhead_term(self):
        # Parameter bytes alone give 20/26; a configured monolithic overhead
        # term (non-weight allocations) pushes the reduction toward ~78.3%.
        model = builtin_model("internvl2-26b")
        raw = 1 - weights_bytes(model, StageRole.ENCODE) / weights_bytes(
            model, StageRole.MONOLITHIC)
        assert raw == pytest.approx(20 / 26, abs=1e-12)
        overhead = 3.3e9
        adjusted = 1 - weights_bytes(model, StageRole.ENCODE) / (weights_bytes(
            model, StageRole.MONOLITHIC) + overhead)
        assert adjusted == pytest.approx(0.783, abs=0.02)

    def test_prefill_and_decode_hold_llm_only(self, toy_model):
        llm_bytes = toy_model.llm_params * toy_model.bytes_per_param
        assert weights_bytes(toy_model, StageRole.PREFILL) == llm_bytes
        assert weights_bytes(toy_model, StageRole.DECODE) == llm_bytes


class TestCacheBytes:
    def test_kv_unit_inputs(self):
        model = ModelSpec(name="unit", encoder_params=1, llm_params=1, num_layers=1,
                          kv_heads=1, head_dim=1, hidden_dim=1, tokens_per_patch=1,
                          max_context_tokens=2, patch_table={}, bytes_per_param=2)
        assert kv_bytes_per_token(model) == 4

    def test_kv_hand_multiplication(self):
        model = ModelSpec(name="k", encoder_params=1, llm_params=1, num_layers=32,
                          kv_heads=8, head_dim=128, hidden_dim=4096, tokens_per_patch=1,
                          max_context_tokens=2, patch_table={}, bytes_per_param=2)
        assert kv_bytes_per_token(model) == 131072

    def test_kv_linear_in_layers(self, toy_model):
        doubled = dataclasses.replace(toy_model, num_layers=toy_model.num_layers * 2)
        assert kv_bytes_per_token(doubled) == 2 * kv_bytes_per_token(toy_model)

    def test_mm_unit_and_hand_values(self):
        small = ModelSpec(name="m", encoder_params=1, llm_params=1, num_layers=1,
                          kv_heads=1, head_dim=1, hidden_dim=1, tokens_per_patch=1,
                          max_context_tokens=2, patch_table={}, bytes_per_param=2)
        assert mm_bytes_per_token(small) == 2
        wide = dataclasses.replace(small, hidden_dim=4096)
        assert mm_bytes_per_token(wide) == 8192

    def test_mm_monotone_in_hidden_dim(self, toy_model):
        bigger = dataclasses.replace(toy_model, hidden_dim=toy_model.hidden_dim + 1)
        assert mm_bytes_per_token(bigger) > mm_bytes_per_token(toy_model)

    def test_byte_functions_strictly_monotone_in_every_input(self, toy_model):
        for field in ("num_layers", "kv_heads", "head_dim", "bytes_per_param"):
            bumped = dataclasses.replace(toy_model, **{field: getattr(toy_model, field) + 1})
            assert kv_bytes_per_token(bumped) > kv_bytes_per_token(toy_model), field
        for field, role in (("encoder_params", StageRole.ENCODE),
                            ("llm_params", StageRole.PREFILL)):
            bumped = dataclasses.replace(toy_model, **{field: getattr(toy_model, field) + 1})
            assert weights_bytes(bumped, role) > weights_bytes(toy_model, role), field


class TestPatchLookup:
    def test_paper_patch_counts(self):
        minicpm = builtin_model("minicpm-v-2.6")
        assert patches_for_image(minicpm, (4032, 3024)) == 10
        assert patches_for_image(minicpm, (313, 234)) == 1
        internvl8 = builtin_model("internvl2-8b")
        assert patches_for_image(internvl8, (787, 444)) == 3

    def test_unknown_resolution_raises(self, toy_model):
        with pytest.raises(UnknownResolution):
            patches_for_image(toy_model, (1, 1))

    def test_deterministic(self, toy_model):
        first = patches_for_image(toy_model, (100, 100))
        assert all(patches_for_image(toy_model, (100, 100)) == first for _ in range(5))


class TestTokensForRequest:
    def test_text_only(self, toy_model):
        assert tokens_for_request(toy_model, FakeRequest((), 22)) == (0, 22)

    def test_two_images_hand_value(self):
        model = builtin_model("minicpm-v-2.6")
        request = FakeRequest(((4032, 3024), (4032, 3024)), 22)
        assert tokens_for_request(model, request) == (1280, 1302)

    def test_additive_over_images(self, toy_model):
        one = tokens_for_request(toy_model, FakeRequest(((100, 100),), 0))[0]
        two = tokens_for_request(toy_model, FakeRequest(((200, 200),), 0))[0]
        both = tokens_for_request(toy_model, FakeRequest(((100, 100), (200, 200)), 0))[0]
        assert both == one + two

    def test_unknown_resolution_propagates(self, toy_model):
        with pytest.raises(UnknownResolution):
            tokens_for_request(toy_model, FakeRequest(((9, 9),), 5))


class TestValidationAndCatalog:
    @pytest.mark.parametrize("key", ["encoder_params", "llm_params", "num_layers", "kv_heads",
                                     "head_dim", "hidden_dim", "tokens_per_patch",
                                     "max_context_tokens", "bytes_per_param"])
    def test_rejects_nonpositive_counts(self, key):
        counts = dict(encoder_params=1, llm_params=1, num_layers=1, kv_heads=1, head_dim=1,
                      hidden_dim=1, tokens_per_patch=1, max_context_tokens=2)
        with pytest.raises(ValueError) as excinfo:
            ModelSpec(name="bad", **{**counts, key: 0}, patch_table={})
        assert str(excinfo.value) == f"bad: {key} must be positive, got 0"

    def test_rejects_context_not_exceeding_patch_tokens(self):
        with pytest.raises(ValueError):
            ModelSpec(name="bad", encoder_params=1, llm_params=1, num_layers=1,
                      kv_heads=1, head_dim=1, hidden_dim=1, tokens_per_patch=5,
                      max_context_tokens=5, patch_table={})

    def test_catalog_file_loads_the_model_it_describes(self, toy_model, tmp_path):
        path = tmp_path / "models.cfg"
        path.write_text("[toy]\nencoder_params = 1000000\nllm_params = 4000000\n"
                        "num_layers = 2\nkv_heads = 2\nhead_dim = 4\nhidden_dim = 8\n"
                        "tokens_per_patch = 4\nmax_context_tokens = 10000\n"
                        "patch_table = 200X200:12, 100x100:6,\n")
        assert load_catalog(path) == {"toy": toy_model}

    def test_builtin_catalog_has_three_models(self):
        assert sorted(builtin_catalog()) == ["internvl2-26b", "internvl2-8b",
                                             "minicpm-v-2.6"]
