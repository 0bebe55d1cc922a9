"""Unit tests for parallelism transformations (DP/CP/TP/PP slicing by ``RankLayout``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.parallelism.mesh import DeviceMesh
from repro.transforms.microbatch import collate_columns_with_positions
from repro.transforms.parallelism import BYTES_PER_TOKEN, RankLayout


@pytest.fixture()
def lengths(sample_factory):
    """Sequence lengths of a kernel collation: two sequences, 407 and 500 tokens."""
    samples = [sample_factory(i, text_tokens=tokens) for i, tokens in enumerate([100] * 4 + [7, 500])]
    collated = collate_columns_with_positions(
        0,
        [sample.sample_id for sample in samples],
        np.array([sample.total_tokens for sample in samples], dtype=np.int64),
        512,
    )
    assert collated.sequence_lengths == [407, 500]
    return collated.sequence_lengths


def slices(mesh: DeviceMesh, lengths, dp_index: int = 0):
    """Every rank's slice of one microbatch, in rank order."""
    deliveries = RankLayout(mesh, dp_index).deliveries(lengths, [0, len(lengths)])
    return [piece for delivery in deliveries for piece in delivery.slices]


def token_bytes(piece, lengths) -> int:
    """The payload bytes a slice carries beyond the shape metadata every rank gets."""
    return piece.payload_bytes - 64 * len(lengths)


class TestContextParallelShares:
    def test_payload_is_bytes_per_token_plus_metadata(self, lengths):
        for piece in slices(DeviceMesh(cp=2), lengths):
            assert token_bytes(piece, lengths) == piece.token_count * BYTES_PER_TOKEN

    def test_shares_cover_all_tokens(self, lengths):
        shares = slices(DeviceMesh(cp=4), lengths)
        assert sum(piece.token_count for piece in shares) == sum(lengths)

    def test_shares_nearly_equal(self, lengths):
        counts = [piece.token_count for piece in slices(DeviceMesh(cp=3), lengths)]
        assert max(counts) - min(counts) <= len(lengths)

    def test_rank_r_gets_floor_plus_one_per_remainder_above_r(self, lengths):
        counts = [piece.token_count for piece in slices(DeviceMesh(cp=3), lengths)]
        assert counts == [
            sum(n // 3 + (r < n % 3) for n in lengths) for r in range(3)
        ]

    def test_single_cp_is_identity(self, lengths):
        (piece,) = slices(DeviceMesh(), lengths)
        assert piece.token_count == sum(lengths)

    @pytest.mark.parametrize("axis", ["cp", "tp"])
    def test_zero_sized_axis_is_refused_by_the_mesh(self, axis):
        with pytest.raises(ConfigurationError):
            DeviceMesh(**{axis: 0})


class TestTensorParallelBroadcast:
    def test_broadcast_only_tp0_fetches(self, lengths):
        head, *rest = slices(DeviceMesh(tp=4), lengths)
        assert head.token_count == sum(lengths)
        assert all(piece.token_count == 0 for piece in rest)
        assert all(piece.replicated_from == head.rank for piece in rest)

    def test_single_tp_rank_fetches_everything(self, lengths):
        (piece,) = slices(DeviceMesh(tp=1), lengths)
        assert piece.token_count == sum(lengths)
        assert piece.replicated_from is None

    def test_only_the_fetching_rank_carries_token_bytes(self, lengths):
        shares = slices(DeviceMesh(tp=4), lengths)
        assert [token_bytes(piece, lengths) for piece in shares] == [
            sum(lengths) * BYTES_PER_TOKEN, 0, 0, 0
        ]


class TestPipelineStages:
    def test_first_stage_needs_payload(self, lengths):
        first = slices(DeviceMesh(pp=4), lengths)[0]
        assert not first.metadata_only
        assert token_bytes(first, lengths) > 0

    def test_middle_stage_metadata_only(self, lengths):
        middle = slices(DeviceMesh(pp=4), lengths)[1]
        assert middle.metadata_only
        assert token_bytes(middle, lengths) == 0
        assert middle.payload_bytes == 64 * len(lengths) > 0

    def test_last_stage_needs_labels(self, lengths):
        last = slices(DeviceMesh(pp=4), lengths)[3]
        assert not last.metadata_only
        assert token_bytes(last, lengths) > 0


class TestRankLayout:
    def test_covers_every_rank_of_its_dp_group(self, lengths):
        mesh = DeviceMesh(pp=2, dp=2, cp=2, tp=2)
        for dp_index in range(2):
            group = slices(mesh, lengths, dp_index)
            assert [piece.rank for piece in group] == mesh.ranks_where(dp=dp_index)
            # The broadcast stays inside the group.
            for piece in group:
                if piece.replicated_from is not None:
                    assert mesh.coordinate(piece.replicated_from).dp == dp_index

    def test_every_cp_rank_fetches_its_own_share(self, lengths):
        # CP ranks are never served by a broadcast; within each, TP ranks are.
        mesh = DeviceMesh(pp=1, dp=1, cp=2, tp=2)
        shares = [piece.token_count for piece in slices(DeviceMesh(cp=2), lengths)]
        for piece in slices(mesh, lengths):
            info = piece.slice_info
            if info["tp_rank"] == 0:
                assert piece.token_count == shares[info["cp_rank"]] > 0
                assert piece.replicated_from is None
            else:
                assert piece.token_count == 0
                assert piece.replicated_from == mesh.ranks_where(dp=0, cp=info["cp_rank"], pp=0)[0]

    def test_cp_ranks_receive_disjoint_shares(self, lengths):
        shares = slices(DeviceMesh(pp=1, dp=1, cp=4, tp=1), lengths)
        assert sum(piece.token_count for piece in shares) == sum(lengths)

    def test_later_pp_stages_marked_metadata_only(self, lengths):
        mesh = DeviceMesh(pp=4, dp=1, cp=1, tp=1)
        by_rank = {piece.rank: piece for piece in slices(mesh, lengths)}
        middle_ranks = mesh.ranks_where(pp=1) + mesh.ranks_where(pp=2)
        assert all(by_rank[rank].metadata_only for rank in middle_ranks)
        assert all(by_rank[rank].slice_info == {} for rank in middle_ranks)
