"""FLOPs models for transformer encoders and backbones.

The attention operator is quadratic in sequence length, which is the root of
the intra- and inter-microbatch imbalance the paper attacks: a sequence packed
from a 30-token and a 70-token segment costs ~16% more attention compute than
two 50-token segments.  These helpers compute forward-pass FLOPs for the
encoder (per image) and the backbone (per fused sequence), and aggregate them
per microbatch and per rank for the Fig. 3 heatmaps and the training
simulator.

A microbatch is read as :data:`MicrobatchTokens`; callers holding
:class:`~repro.data.samples.SampleMetadata` lists convert with :func:`token_arrays`.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.data.samples import SampleMetadata
from repro.training.models import BackboneConfig, EncoderConfig, ModelConfig

#: One microbatch: per sample, its fused tokens and its image tokens.
MicrobatchTokens = tuple[Iterable[int], Iterable[int]]


def token_arrays(assignments: list[list[list[SampleMetadata]]]) -> list[list[MicrobatchTokens]]:
    """``[rank][microbatch]`` record lists as :data:`MicrobatchTokens` arrays."""
    return [
        [
            tuple(np.array([getattr(s, name) for s in samples], dtype=np.int64)
                  for name in ("total_tokens", "image_tokens"))
            for samples in row
        ]
        for row in assignments
    ]


def attention_flops(seq_len: int, hidden_size: int) -> float:
    """Forward FLOPs of one self-attention block over ``seq_len`` tokens.

    QKV + output projections are linear in sequence length; the score and
    value aggregation matmuls contribute the quadratic term.
    """
    if seq_len <= 0:
        return 0.0
    projections = 8.0 * seq_len * hidden_size * hidden_size
    score_and_context = 4.0 * seq_len * seq_len * hidden_size
    return projections + score_and_context


def mlp_flops(seq_len: int, hidden_size: int, mlp_ratio: float) -> float:
    """Forward FLOPs of one MLP block (two projections)."""
    if seq_len <= 0:
        return 0.0
    return 4.0 * seq_len * hidden_size * (hidden_size * mlp_ratio)


def transformer_layer_flops(seq_len: int, hidden_size: int, mlp_ratio: float) -> float:
    """Forward FLOPs of one transformer layer."""
    return attention_flops(seq_len, hidden_size) + mlp_flops(seq_len, hidden_size, mlp_ratio)


def model_flops(seq_len: int, config: ModelConfig) -> float:
    """Forward FLOPs of a full model over one sequence of ``seq_len`` tokens."""
    return config.num_layers * transformer_layer_flops(seq_len, config.hidden_size, config.mlp_ratio)


def encoder_sample_flops(image_tokens: int, encoder: EncoderConfig) -> float:
    """Encoder forward FLOPs for one image of ``image_tokens`` patches.

    Each image attends only over its own patches, so the encoder cost of a
    microbatch is the sum of per-image costs — there is no cross-image
    quadratic interaction.
    """
    return model_flops(image_tokens, encoder)


def packed_backbone_flops(segment_lengths: Iterable[int], backbone: BackboneConfig) -> float:
    """Backbone FLOPs for a packed sequence with per-segment attention masks.

    Packing with segment masks keeps attention quadratic only within each
    segment while the linear projections scale with the total packed length.
    """
    lengths = [int(length) for length in segment_lengths if length > 0]
    total = sum(lengths)
    if total == 0:
        return 0.0
    ratio = backbone.active_mlp_ratio()
    linear = backbone.num_layers * (
        8.0 * total * backbone.hidden_size**2
        + mlp_flops(total, backbone.hidden_size, ratio)
    )
    hidden = backbone.hidden_size
    quadratic = backbone.num_layers * sum(4.0 * length * length * hidden for length in lengths)
    return linear + quadratic


def microbatch_flops(
    tokens: MicrobatchTokens,
    encoder: EncoderConfig | None,
    backbone: BackboneConfig | None,
) -> dict[str, float]:
    """Encoder and backbone FLOPs of one microbatch (0.0 for a module passed as None).

    Returns a dict with ``encoder_flops`` (sum over images) and
    ``backbone_flops`` (the fused sequences packed into one).
    """
    total_tokens, image_tokens = tokens
    encoder_total = 0.0
    if encoder is not None:
        encoder_total = sum(
            encoder_sample_flops(image, encoder) for image in image_tokens if image > 0
        )
    backbone_total = 0.0 if backbone is None else packed_backbone_flops(total_tokens, backbone)
    return {"encoder_flops": encoder_total, "backbone_flops": backbone_total}


def flops_imbalance_matrix(
    assignments: list[list[MicrobatchTokens]],
    encoder: EncoderConfig | None,
    backbone: BackboneConfig,
    which: str = "backbone",
) -> np.ndarray:
    """FLOPs heatmap over [rank][microbatch] assignments (Fig. 3).

    ``assignments[rank][microbatch]`` is the :data:`MicrobatchTokens` that rank
    processes in that microbatch; the returned array has the same shape filled
    with the selected FLOPs component.
    """
    if which not in ("backbone", "encoder"):
        raise ValueError("which must be 'backbone' or 'encoder'")
    num_ranks = len(assignments)
    num_microbatches = max((len(row) for row in assignments), default=0)
    matrix = np.zeros((num_ranks, num_microbatches), dtype=float)
    for rank_index, row in enumerate(assignments):
        for mb_index, tokens in enumerate(row):
            flops = microbatch_flops(tokens, encoder, backbone)
            matrix[rank_index, mb_index] = flops[f"{which}_flops"]
    return matrix


def imbalance_ratio(matrix: np.ndarray) -> float:
    """Max/min ratio over the non-zero entries of a FLOPs matrix."""
    values = matrix[matrix > 0]
    if values.size == 0:
        return 1.0
    return float(values.max() / values.min())
