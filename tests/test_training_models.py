"""Unit tests for the Table 1 model zoo."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.training.models import (
    MODEL_ZOO,
    BackboneConfig,
    EncoderConfig,
    ModelConfig,
    VLMConfig,
    get_model,
    llama_12b,
    mixtral_8x7b,
    tmoe_25b,
    vit_1b,
    vit_2b,
)

TABLE_1 = {
    "ViT-1B": (39, 16, 1408),
    "ViT-2B": (48, 16, 1664),
    "Llama-12B": (45, 36, 4608),
    "tMoE-25B": (42, 16, 2048),
    "Mixtral-8x7B": (32, 32, 4096),
}


class TestTable1:
    @pytest.mark.parametrize("name,expected", TABLE_1.items())
    def test_configs_match_table_1(self, name, expected):
        model = get_model(name)
        assert (model.num_layers, model.num_heads, model.hidden_size) == expected

    def test_zoo_contains_exactly_table_1(self):
        assert set(MODEL_ZOO) == set(TABLE_1)

    def test_unknown_model(self):
        with pytest.raises(ConfigurationError):
            get_model("GPT-5")

    def test_moe_topk_is_two(self):
        assert tmoe_25b().experts_per_token == 2
        assert mixtral_8x7b().experts_per_token == 2


class TestConfigs:
    def test_invalid_hidden_head_combo(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(name="bad", num_layers=2, num_heads=3, hidden_size=10)

    def test_invalid_layer_count(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(name="bad", num_layers=0, num_heads=2, hidden_size=10)

    def test_param_counts_are_ordered(self):
        assert vit_2b().approx_params() > vit_1b().approx_params()
        assert llama_12b().approx_params() > vit_2b().approx_params()

    def test_moe_active_ratio_uses_topk_experts(self):
        moe = mixtral_8x7b()
        assert moe.is_moe
        expected = 2 * 14336 / 4096
        assert moe.active_mlp_ratio() == pytest.approx(expected)

    def test_dense_active_ratio_is_mlp_ratio(self):
        dense = llama_12b()
        assert not dense.is_moe
        assert dense.active_mlp_ratio() == dense.mlp_ratio

    def test_encoder_has_no_vocab(self):
        assert vit_1b().vocab_size == 0

    def test_vlm_config_name(self):
        vlm = VLMConfig(encoder=vit_1b(), backbone=llama_12b())
        assert vlm.name == "Llama-12B+ViT-1B"
        assert isinstance(vlm.encoder, EncoderConfig)
        assert isinstance(vlm.backbone, BackboneConfig)
