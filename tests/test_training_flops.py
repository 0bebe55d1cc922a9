"""Unit tests for the FLOPs models (quadratic attention, packing, heatmaps)."""

from __future__ import annotations

from itertools import accumulate, pairwise

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.training.flops import (
    attention_flops,
    TokenBins,
    encoder_sample_flops,
    flops_imbalance_matrix,
    imbalance_ratio,
    mlp_flops,
    model_flops,
    packed_backbone_flops,
    segment_attention_flops,
    sequence_backbone_flops,
    token_arrays,
    transformer_layer_flops,
)
from repro.training.models import llama_12b, mixtral_8x7b, tmoe_25b, vit_1b, vit_2b
from repro.training.simulator import GpuSpec


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
        dense_like = sequence_backbone_flops(4096, llama_12b())
        moe = sequence_backbone_flops(4096, mixtral_8x7b())
        # Mixtral 8x7B activates 2 of 8 experts; its cost is well below 8 experts' worth.
        assert moe < 4 * dense_like

    def test_packed_flops_below_single_sequence(self):
        backbone = llama_12b()
        packed = packed_backbone_flops(4096, 4 * segment_attention_flops(1024, backbone), backbone)
        fused = sequence_backbone_flops(4096, backbone)
        assert packed < fused

    def test_packed_flops_empty(self):
        assert packed_backbone_flops(0, 0.0, llama_12b()) == 0.0

    def test_microbatch_flops_components(self, sample_factory):
        samples = [sample_factory(i, text_tokens=64, image_tokens=256) for i in range(4)]
        bins = token_arrays([[samples]])
        assert flops_imbalance_matrix(bins, vit_1b(), llama_12b(), "encoder")[0, 0] > 0
        assert flops_imbalance_matrix(bins, None, llama_12b())[0, 0] > 0

    def test_microbatch_backbone_packs_its_samples(self, sample_factory):
        samples = [sample_factory(i, text_tokens=64 * (i + 1)) for i in range(4)]
        flops = flops_imbalance_matrix(token_arrays([[samples]]), None, llama_12b())
        attention = sum(segment_attention_flops(t, llama_12b()) for t in (64, 128, 192, 256))
        assert flops[0, 0] == packed_backbone_flops(640, attention, llama_12b())

    def test_microbatch_without_encoder(self, sample_factory):
        samples = [sample_factory(i, text_tokens=64) for i in range(4)]
        matrix = flops_imbalance_matrix(token_arrays([[samples]]), None, llama_12b(), "encoder")
        assert matrix.tolist() == [[0.0]]

    def test_module_without_rows(self):
        # Two ranks whose two microbatches are all empty: no row to sum.
        bins = token_arrays([[[], []], [[], []]])
        for which in ("backbone", "encoder"):
            matrix = flops_imbalance_matrix(bins, vit_1b(), llama_12b(), which)
            assert matrix.tolist() == [[0.0, 0.0], [0.0, 0.0]]


MODELS = (vit_1b(), vit_2b(), llama_12b(), mixtral_8x7b(), tmoe_25b())
token_counts = st.lists(st.integers(min_value=0, max_value=2**20), max_size=40)


class TestArrayFormulas:
    """Array formulas equal the scalar Python-float formulas bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(tokens=token_counts)
    def test_per_sample_formulas(self, tokens):
        column = np.array(tokens, dtype=np.int64)
        for model in MODELS:
            assert model_flops(column, model).tolist() == [model_flops(t, model) for t in tokens]
        encoder = vit_1b()
        assert encoder_sample_flops(column, encoder).tolist() == [
            encoder_sample_flops(t, encoder) for t in tokens
        ]
        for backbone in MODELS[2:]:
            attention = segment_attention_flops(column, backbone)
            assert attention.tolist() == [segment_attention_flops(t, backbone) for t in tokens]
            assert sequence_backbone_flops(column, backbone).tolist() == [
                sequence_backbone_flops(t, backbone) for t in tokens
            ]
            # A packed sequence: totals and attention sums from other rows.
            assert packed_backbone_flops(column[::-1], attention, backbone).tolist() == [
                packed_backbone_flops(t, a, backbone)
                for t, a in zip(tokens[::-1], attention.tolist())
            ]
        flops = encoder_sample_flops(column, encoder) * 3.0
        assert GpuSpec().seconds_for(flops).tolist() == [
            GpuSpec().seconds_for(f) for f in flops.tolist()
        ]

    @settings(max_examples=100, deadline=None)
    @given(
        widths=st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=30),
        wide=st.integers(min_value=50, max_value=600),
        at=st.integers(min_value=0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_bin_sums_add_in_python_sum_order(self, widths, wide, at, seed):
        widths.insert(at % (len(widths) + 1), wide)
        offsets = list(accumulate(widths, initial=0))
        rng = np.random.default_rng(seed)
        floats = rng.random(offsets[-1]) * 10.0 ** rng.integers(-3, 18, offsets[-1])
        ints = rng.integers(0, 2**20, offsets[-1])
        bins = TokenBins(ints, ints, offsets, len(widths), 1)

        def expected(column):
            return [sum(column[lo:hi].tolist()) for lo, hi in pairwise(offsets)]

        assert bins.bin_sums(floats) == expected(floats)
        assert bins.bin_sums(ints) == expected(ints)
        assert bins.grid(floats).tolist() == [[total] for total in expected(floats)]


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
