"""Unit tests for microbatch transformations: batching, packing, padding, RoPE."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TransformError
from repro.transforms.microbatch import (
    Microbatch,
    PackingCollator,
    PaddingCollator,
    apply_rope_positions,
    batch_samples,
    collate_with_positions,
)


class TestBatchSamples:
    def test_contiguous_split(self, sample_factory):
        samples = [sample_factory(i, text_tokens=10) for i in range(10)]
        microbatches = batch_samples(samples, 4)
        assert len(microbatches) == 4
        assert sum(len(mb) for mb in microbatches) == 10
        assert [s.sample_id for s in microbatches[0].samples] == [0, 1, 2]

    def test_invalid_count(self, sample_factory):
        with pytest.raises(TransformError):
            batch_samples([sample_factory(0)], 0)

    def test_token_totals(self, sample_factory):
        mb = Microbatch(index=0, samples=[sample_factory(0, 10, 20), sample_factory(1, 5, 0)])
        assert mb.total_tokens() == 35
        assert mb.text_tokens() == 15
        assert mb.image_tokens() == 20


class TestPackingCollator:
    def test_packs_small_samples_into_one_sequence(self, sample_factory):
        mb = Microbatch(index=0, samples=[sample_factory(i, text_tokens=100) for i in range(4)])
        collated = PackingCollator(max_sequence_length=512).collate(mb)
        assert len(collated.sequences) == 1
        assert collated.sequences[0].tokens == 400
        assert collated.padding_tokens() == 0

    def test_opens_new_bin_when_full(self, sample_factory):
        mb = Microbatch(index=0, samples=[sample_factory(i, text_tokens=200) for i in range(3)])
        collated = PackingCollator(max_sequence_length=512).collate(mb)
        assert len(collated.sequences) == 2

    def test_oversized_sample_truncated_when_allowed(self, sample_factory):
        mb = Microbatch(index=0, samples=[sample_factory(0, text_tokens=1000)])
        collated = PackingCollator(max_sequence_length=512).collate(mb)
        assert collated.sequences[0].tokens == 512

    def test_oversized_sample_rejected_when_strict(self, sample_factory):
        mb = Microbatch(index=0, samples=[sample_factory(0, text_tokens=1000)])
        with pytest.raises(TransformError):
            PackingCollator(max_sequence_length=512, allow_overflow=False).collate(mb)

    def test_strict_mode_keeps_packing_and_zero_padding(self, sample_factory):
        # Regression for the removed per-sequence padding reset: strict mode
        # must still pack fitting samples normally, with padding untouched (0)
        # and token totals exact.
        mb = Microbatch(
            index=0,
            samples=[sample_factory(i, text_tokens=tokens) for i, tokens in enumerate([300, 200, 400])],
        )
        collated = PackingCollator(max_sequence_length=512, allow_overflow=False).collate(mb)
        assert [seq.padding for seq in collated.sequences] == [0] * len(collated.sequences)
        assert collated.total_tokens() == 900
        assert collated.padding_tokens() == 0
        assert sorted(seg for seq in collated.sequences for seg in seq.segments) == [
            (0, 300),
            (1, 200),
            (2, 400),
        ]

    def test_invalid_sequence_length(self):
        with pytest.raises(TransformError):
            PackingCollator(max_sequence_length=0)

    def test_segments_record_sample_ids(self, sample_factory):
        mb = Microbatch(index=0, samples=[sample_factory(7, text_tokens=10)])
        collated = PackingCollator(128).collate(mb)
        assert collated.sequences[0].segments == [(7, 10)]


class TestPaddingCollator:
    def test_pads_to_longest(self, sample_factory):
        mb = Microbatch(
            index=0, samples=[sample_factory(0, text_tokens=10), sample_factory(1, text_tokens=30)]
        )
        collated = PaddingCollator().collate(mb)
        assert all(seq.tokens == 30 for seq in collated.sequences)
        assert collated.padding_tokens() == 20
        assert 0 < collated.padding_tokens() < collated.total_tokens()

    def test_respects_max_length(self, sample_factory):
        mb = Microbatch(index=0, samples=[sample_factory(0, text_tokens=100)])
        collated = PaddingCollator(max_sequence_length=64).collate(mb)
        assert collated.sequences[0].tokens == 64

    def test_empty_microbatch(self):
        collated = PaddingCollator().collate(Microbatch(index=0))
        assert collated.sequences == []
        assert collated.padding_tokens() == 0

    def test_padding_wastes_more_than_packing(self, sample_factory):
        samples = [sample_factory(i, text_tokens=16 * (i + 1)) for i in range(8)]
        mb = Microbatch(index=0, samples=samples)
        packed = PackingCollator(512).collate(mb)
        padded = PaddingCollator().collate(mb)
        assert padded.total_tokens() > packed.total_tokens()


class TestRope:
    def test_positions_restart_per_segment(self, sample_factory):
        mb = Microbatch(
            index=0, samples=[sample_factory(0, text_tokens=3), sample_factory(1, text_tokens=2)]
        )
        collated = apply_rope_positions(PackingCollator(16).collate(mb))
        assert collated.position_ids.tolist() == [0, 1, 2, 0, 1]

    def test_padding_positions_are_zero(self, sample_factory):
        mb = Microbatch(
            index=0, samples=[sample_factory(0, text_tokens=2), sample_factory(1, text_tokens=4)]
        )
        collated = apply_rope_positions(PaddingCollator().collate(mb))
        # first sequence: 2 real + 2 padding positions
        assert collated.position_ids[:4].tolist() == [0, 1, 0, 0]

    def test_invalid_theta(self, sample_factory):
        mb = Microbatch(index=0, samples=[sample_factory(0, text_tokens=2)])
        collated = PackingCollator(16).collate(mb)
        with pytest.raises(TransformError):
            apply_rope_positions(collated, theta=0)

    def test_collate_with_positions_helper(self, sample_factory):
        mb = Microbatch(index=0, samples=[sample_factory(0, text_tokens=4)])
        collated = collate_with_positions(mb, 16, packing=True)
        assert isinstance(collated.position_ids, np.ndarray)
        assert collated.total_tokens() == 4
