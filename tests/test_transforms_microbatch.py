"""Unit tests for microbatch transformations: packing and RoPE positions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TransformError
from repro.transforms.microbatch import collate_columns_with_positions


def collate(samples, max_sequence_length):
    """Pack sample records through the column kernel."""
    return collate_columns_with_positions(
        [sample.sample_id for sample in samples],
        np.array([sample.total_tokens for sample in samples], dtype=np.int64),
        max_sequence_length,
    )


class TestPacking:
    def test_packs_small_samples_into_one_sequence(self, sample_factory):
        collated = collate([sample_factory(i, text_tokens=100) for i in range(4)], 512)
        assert len(collated.sequences) == 1
        assert collated.sequences[0].tokens == 400

    def test_opens_new_bin_when_full(self, sample_factory):
        collated = collate([sample_factory(i, text_tokens=200) for i in range(3)], 512)
        assert len(collated.sequences) == 2

    def test_oversized_sample_truncated(self, sample_factory):
        collated = collate([sample_factory(0, text_tokens=1000)], 512)
        assert collated.sequences[0].tokens == 512
        assert collated.total_tokens() == 512

    def test_fitting_samples_pack_with_exact_totals(self, sample_factory):
        # Regression for the removed per-sequence padding reset: fitting
        # samples pack normally, with token totals exact.
        samples = [sample_factory(i, text_tokens=tokens) for i, tokens in enumerate([300, 200, 400])]
        collated = collate(samples, 512)
        assert collated.total_tokens() == 900
        assert sorted(seg for seq in collated.sequences for seg in seq.segments) == [
            (0, 300),
            (1, 200),
            (2, 400),
        ]

    def test_invalid_sequence_length(self, sample_factory):
        with pytest.raises(TransformError):
            collate([sample_factory(0)], 0)

    def test_segments_record_sample_ids(self, sample_factory):
        collated = collate([sample_factory(7, text_tokens=10)], 128)
        assert collated.sequences[0].segments == [(7, 10)]

    def test_empty_microbatch(self):
        collated = collate([], 64)
        assert collated.sequences == []
        assert collated.total_tokens() == 0
        assert collated.position_ids.dtype == np.int32 and len(collated.position_ids) == 0


class TestRope:
    def test_positions_restart_per_segment(self, sample_factory):
        collated = collate(
            [sample_factory(0, text_tokens=3), sample_factory(1, text_tokens=2)], 16
        )
        assert collated.position_ids.tolist() == [0, 1, 2, 0, 1]

    def test_positions_are_int32_and_cover_every_token(self, sample_factory):
        collated = collate([sample_factory(0, text_tokens=4)], 16)
        assert isinstance(collated.position_ids, np.ndarray)
        assert collated.position_ids.dtype == np.int32
        assert collated.total_tokens() == len(collated.position_ids) == 4
