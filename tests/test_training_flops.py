"""Unit tests for the FLOPs models (quadratic attention, packing, heatmaps)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.training.flops import (
    attention_flops,
    encoder_sample_flops,
    flops_imbalance_matrix,
    imbalance_ratio,
    microbatch_flops,
    mlp_flops,
    model_flops,
    packed_backbone_flops,
    token_arrays,
    transformer_layer_flops,
)
from repro.training.models import llama_12b, mixtral_8x7b, vit_1b, vit_2b


class TestPrimitives:
    def test_attention_has_quadratic_component(self):
        short = attention_flops(1000, 1024)
        long = attention_flops(2000, 1024)
        # More than 2x because of the quadratic score term.
        assert long > 2.0 * short

    def test_zero_length_is_zero(self):
        assert attention_flops(0, 1024) == 0.0
        assert mlp_flops(0, 1024, 4.0) == 0.0

    def test_layer_is_attention_plus_mlp(self):
        assert transformer_layer_flops(128, 512, 4.0) == pytest.approx(
            attention_flops(128, 512) + mlp_flops(128, 512, 4.0)
        )

    def test_paper_packing_example(self):
        """A 30+70 packed pair costs ~16% more than two 50-token segments."""
        hidden = 1  # isolate the quadratic term
        unbalanced = 30 * 30 + 70 * 70
        balanced = 2 * 50 * 50
        assert (unbalanced - balanced) / balanced == pytest.approx(0.16)


class TestModelFlops:
    def test_model_is_layers_times_one_layer(self):
        encoder = vit_1b()
        assert model_flops(256, encoder) == pytest.approx(
            encoder.num_layers * transformer_layer_flops(256, encoder.hidden_size, encoder.mlp_ratio)
        )
        assert encoder_sample_flops(256, encoder) == model_flops(256, encoder)

    def test_encoder_flops_scale_with_model_size(self):
        assert encoder_sample_flops(1024, vit_2b()) > encoder_sample_flops(1024, vit_1b())

    def test_moe_uses_active_experts_only(self):
        dense_like = packed_backbone_flops([4096], llama_12b())
        moe = packed_backbone_flops([4096], mixtral_8x7b())
        # Mixtral 8x7B activates 2 of 8 experts; its cost is well below 8 experts' worth.
        assert moe < 4 * dense_like

    def test_packed_flops_below_single_sequence(self):
        backbone = llama_12b()
        packed = packed_backbone_flops([1024] * 4, backbone)
        fused = packed_backbone_flops([4096], backbone)
        assert packed < fused

    def test_packed_flops_empty(self):
        assert packed_backbone_flops([], llama_12b()) == 0.0

    def test_microbatch_flops_components(self, sample_factory):
        samples = [sample_factory(i, text_tokens=64, image_tokens=256) for i in range(4)]
        flops = microbatch_flops(token_arrays([[samples]])[0][0], vit_1b(), llama_12b())
        assert flops["encoder_flops"] > 0
        assert flops["backbone_flops"] > 0

    def test_microbatch_backbone_packs_its_samples(self, sample_factory):
        samples = [sample_factory(i, text_tokens=64 * (i + 1)) for i in range(4)]
        flops = microbatch_flops(token_arrays([[samples]])[0][0], None, llama_12b())
        assert flops["backbone_flops"] == packed_backbone_flops([64, 128, 192, 256], llama_12b())

    def test_microbatch_without_encoder(self, sample_factory):
        samples = [sample_factory(i, text_tokens=64) for i in range(4)]
        flops = microbatch_flops(token_arrays([[samples]])[0][0], None, llama_12b())
        assert flops["encoder_flops"] == 0.0


class TestImbalance:
    def test_heatmap_shape_and_ratio(self, sample_factory):
        assignments = [
            [[sample_factory(0, text_tokens=100)], [sample_factory(1, text_tokens=1000)]],
            [[sample_factory(2, text_tokens=500)], [sample_factory(3, text_tokens=500)]],
        ]
        matrix = flops_imbalance_matrix(token_arrays(assignments), None, llama_12b())
        assert matrix.shape == (2, 2)
        assert imbalance_ratio(matrix) > 1.5

    def test_balanced_matrix_ratio_is_one(self, sample_factory):
        assignments = [[[sample_factory(i, text_tokens=100)]] for i in range(4)]
        matrix = flops_imbalance_matrix(token_arrays(assignments), None, llama_12b())
        assert imbalance_ratio(matrix) == pytest.approx(1.0)

    def test_empty_matrix_ratio(self):
        assert imbalance_ratio(np.zeros((2, 2))) == 1.0

    def test_invalid_component(self, sample_factory):
        with pytest.raises(ValueError):
            flops_imbalance_matrix(
                token_arrays([[[sample_factory(0)]]]), None, llama_12b(), which="vocab"
            )
