"""FLOPs models for transformer encoders and backbones.

The attention operator is quadratic in sequence length, which is the root of
the intra- and inter-microbatch imbalance the paper attacks: a sequence packed
from a 30-token and a 70-token segment costs ~16% more attention compute than
two 50-token segments.  These helpers compute forward-pass FLOPs for the
encoder (per image) and the backbone (per fused sequence), and aggregate them
per microbatch and per rank for the Fig. 3 heatmaps and the training
simulator.

Every formula takes a token count or an array of them: the cost models price
one sample with Python floats, the simulator prices a plan's columns
elementwise and then its per-bin totals as Python floats, and an array result
equals the Python-float result of each element bit for bit.  Token counts are
non-negative, and zero tokens cost exactly 0.0.

A module's samples reach the model as :class:`TokenBins`: its token columns in
bin order plus the bin offsets, which a :class:`~repro.core.plans.ModulePlan`
holds.  Per-bin totals are added in Python ``sum()`` order
(:meth:`TokenBins.bin_sums`).  Callers holding
:class:`~repro.data.samples.SampleMetadata` lists convert with
:func:`token_arrays`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, pairwise

import numpy as np

from repro.data.samples import SampleMetadata
from repro.training.models import BackboneConfig, EncoderConfig, ModelConfig


@dataclass(frozen=True, eq=False)
class TokenBins:
    """A module's per-sample token columns cut into buckets x microbatches bins.

    Bin ``k`` (bucket ``k // num_microbatches``, microbatch
    ``k % num_microbatches``) holds rows ``offsets[k]:offsets[k + 1]``; the
    bins tile the columns in order.
    """

    total_tokens: np.ndarray
    image_tokens: np.ndarray
    offsets: list[int]
    num_buckets: int
    num_microbatches: int

    def bin_sums(self, values: np.ndarray) -> list:
        """Per-row ``values`` summed per bin, as a Python list in bin order.

        Each bin is added by Python's ``sum()`` over its slice of the column,
        so a float bin total is the scalar model's bit for bit (``np.sum``
        adds pairwise).  There are tens of bins, against hundreds of rows:
        one slice per bin costs less than laying the rows out in a padded
        array for a ``cumsum``.  Empty bins sum to ``0``.
        """
        column = values.tolist()
        return [sum(column[lo:hi]) for lo, hi in pairwise(self.offsets)]

    def grid(self, values: np.ndarray) -> np.ndarray:
        """:meth:`bin_sums` as a ``num_buckets x num_microbatches`` array."""
        return np.array(self.bin_sums(values), dtype=values.dtype).reshape(
            self.num_buckets, self.num_microbatches
        )


def token_arrays(assignments: list[list[list[SampleMetadata]]]) -> TokenBins:
    """``[rank][microbatch]`` record lists as :class:`TokenBins` (a rank with
    fewer microbatches than the widest ends in empty bins)."""
    width = max((len(row) for row in assignments), default=0)
    bins = [row[mb] if mb < len(row) else [] for row in assignments for mb in range(width)]
    samples = list(chain.from_iterable(bins))
    return TokenBins(
        np.array([s.total_tokens for s in samples], dtype=np.int64),
        np.array([s.image_tokens for s in samples], dtype=np.int64),
        list(accumulate(map(len, bins), initial=0)),
        len(assignments),
        width,
    )


def attention_flops(seq_len, hidden_size: int):
    """Forward FLOPs of one self-attention block over ``seq_len`` tokens.

    QKV + output projections are linear in sequence length; the score and
    value aggregation matmuls contribute the quadratic term.
    """
    projections = 8.0 * seq_len * hidden_size * hidden_size
    score_and_context = 4.0 * seq_len * seq_len * hidden_size
    return projections + score_and_context


def mlp_flops(seq_len, hidden_size: int, mlp_ratio: float):
    """Forward FLOPs of one MLP block (two projections)."""
    return 4.0 * seq_len * hidden_size * (hidden_size * mlp_ratio)


def transformer_layer_flops(seq_len, hidden_size: int, mlp_ratio: float):
    """Forward FLOPs of one transformer layer."""
    return attention_flops(seq_len, hidden_size) + mlp_flops(seq_len, hidden_size, mlp_ratio)


def model_flops(seq_len, config: ModelConfig):
    """Forward FLOPs of a full model over one sequence of ``seq_len`` tokens."""
    return config.num_layers * transformer_layer_flops(seq_len, config.hidden_size, config.mlp_ratio)


def encoder_sample_flops(image_tokens, encoder: EncoderConfig):
    """Encoder forward FLOPs for one image of ``image_tokens`` patches.

    Each image attends only over its own patches, so the encoder cost of a
    microbatch is the sum of per-image costs — there is no cross-image
    quadratic interaction.
    """
    return model_flops(image_tokens, encoder)


def segment_attention_flops(segment_tokens, backbone: BackboneConfig):
    """One backbone layer's attention-score FLOPs over one packed segment.

    A packed sequence's quadratic term is the sum of its segments' (the
    segment masks keep attention within a segment), which
    :func:`packed_backbone_flops` takes.
    """
    return 4.0 * segment_tokens * segment_tokens * backbone.hidden_size


def packed_backbone_flops(total_tokens, segment_attention, backbone: BackboneConfig):
    """Backbone FLOPs of a packed sequence of ``total_tokens`` tokens whose
    segments' :func:`segment_attention_flops` add up to ``segment_attention``.

    Packing with segment masks keeps attention quadratic only within each
    segment while the linear projections scale with the total packed length.
    """
    hidden = backbone.hidden_size
    linear = backbone.num_layers * (
        8.0 * total_tokens * hidden**2
        + mlp_flops(total_tokens, hidden, backbone.active_mlp_ratio())
    )
    return linear + backbone.num_layers * segment_attention


def sequence_backbone_flops(tokens, backbone: BackboneConfig):
    """Backbone FLOPs of ``tokens`` as one sequence of a single segment."""
    return packed_backbone_flops(tokens, segment_attention_flops(tokens, backbone), backbone)


def flops_imbalance_matrix(
    assignments: TokenBins,
    encoder: EncoderConfig | None,
    backbone: BackboneConfig,
    which: str = "backbone",
) -> np.ndarray:
    """FLOPs heatmap over [rank][microbatch] assignments (Fig. 3).

    Bucket ``rank``'s microbatch ``mb`` of ``assignments`` is what that rank
    processes in that microbatch; the returned ``rank x microbatch`` array
    holds the selected FLOPs component: backbone FLOPs pack each bin's
    samples into one sequence, encoder FLOPs are 0.0 without an encoder.
    """
    if which == "backbone":
        totals = assignments.total_tokens
        attention = assignments.grid(segment_attention_flops(totals, backbone))
        return packed_backbone_flops(assignments.grid(totals), attention, backbone)
    if which != "encoder":
        raise ValueError("which must be 'backbone' or 'encoder'")
    if encoder is None:
        return np.zeros((assignments.num_buckets, assignments.num_microbatches))
    return assignments.grid(encoder_sample_flops(assignments.image_tokens, encoder))


def imbalance_ratio(matrix: np.ndarray) -> float:
    """Max/min ratio over the non-zero entries of a FLOPs matrix."""
    values = matrix[matrix > 0]
    if values.size == 0:
        return 1.0
    return float(values.max() / values.min())
