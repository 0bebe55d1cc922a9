"""Unit tests for parallelism transformations (DP/CP/TP/PP views)."""

from __future__ import annotations

import pytest

from repro.errors import TransformError
from repro.parallelism.mesh import DeviceMesh
from repro.transforms.microbatch import Microbatch, PackingCollator
from repro.transforms.parallelism import (
    BYTES_PER_TOKEN,
    build_rank_slices,
    context_parallel_slices,
    pipeline_stage_view,
    tensor_parallel_replicas,
)


@pytest.fixture()
def collated(sample_factory):
    mb = Microbatch(index=0, samples=[sample_factory(i, text_tokens=100) for i in range(4)])
    return PackingCollator(max_sequence_length=512).collate(mb)


class TestContextParallelSlices:
    def test_payload_is_bytes_per_token(self, collated):
        for share in context_parallel_slices(collated, cp_size=2):
            assert share["payload_bytes"] == share["token_count"] * BYTES_PER_TOKEN

    def test_slices_cover_all_tokens(self, collated):
        slices = context_parallel_slices(collated, cp_size=4)
        assert sum(s["token_count"] for s in slices) == collated.total_tokens()

    def test_slices_nearly_equal(self, collated):
        slices = context_parallel_slices(collated, cp_size=3)
        counts = [s["token_count"] for s in slices]
        assert max(counts) - min(counts) <= len(collated.sequences)

    def test_single_cp_is_identity(self, collated):
        slices = context_parallel_slices(collated, cp_size=1)
        assert slices[0]["token_count"] == collated.total_tokens()

    def test_invalid_cp_size(self, collated):
        with pytest.raises(TransformError):
            context_parallel_slices(collated, 0)


class TestTensorParallelReplicas:
    def test_broadcast_only_tp0_fetches(self):
        replicas = tensor_parallel_replicas(1000, tp_size=4)
        assert replicas[0]["token_count"] == 1000
        assert all(r["token_count"] == 0 for r in replicas[1:])
        assert all(r["via_broadcast"] for r in replicas[1:])

    def test_invalid_tp_size(self):
        with pytest.raises(TransformError):
            tensor_parallel_replicas(10, 0)

    def test_single_tp_rank_fetches_everything(self):
        (replica,) = tensor_parallel_replicas(1000, tp_size=1)
        assert replica["token_count"] == 1000
        assert not replica["via_broadcast"]

    def test_only_the_fetching_rank_carries_payload_bytes(self):
        replicas = tensor_parallel_replicas(1000, tp_size=4)
        assert [r["payload_bytes"] for r in replicas] == [1000 * BYTES_PER_TOKEN, 0, 0, 0]


class TestPipelineStageView:
    def test_first_stage_needs_payload(self, collated):
        view = pipeline_stage_view(collated, pp_rank=0, pp_size=4)
        assert view["needs_payload"]
        assert view["payload_bytes"] > 0

    def test_middle_stage_metadata_only(self, collated):
        view = pipeline_stage_view(collated, pp_rank=1, pp_size=4)
        assert not view["needs_payload"]
        assert view["payload_bytes"] == 0
        assert view["metadata_bytes"] > 0

    def test_last_stage_needs_labels(self, collated):
        view = pipeline_stage_view(collated, pp_rank=3, pp_size=4)
        assert view["needs_payload"]
        assert view["payload_bytes"] > 0

    def test_invalid_rank(self, collated):
        with pytest.raises(TransformError):
            pipeline_stage_view(collated, pp_rank=4, pp_size=4)


class TestBuildRankSlices:
    def test_covers_every_rank_of_dp_group(self, collated):
        mesh = DeviceMesh(pp=2, dp=2, cp=2, tp=2)
        slices = build_rank_slices(collated, mesh, dp_index=0)
        assert {s.rank for s in slices} == set(mesh.ranks_where(dp=0))

    def test_tp_broadcast_serves_ranks_past_the_first(self, collated):
        mesh = DeviceMesh(pp=1, dp=1, cp=1, tp=4)
        head, *rest = sorted(build_rank_slices(collated, mesh, dp_index=0), key=lambda s: s.rank)
        assert head.token_count == collated.total_tokens()
        assert head.replicated_from is None
        assert all(s.token_count == 0 and s.replicated_from == head.rank for s in rest)

    def test_every_cp_rank_fetches_its_own_share(self, collated):
        # CP ranks are never served by a broadcast; within each, TP ranks are.
        mesh = DeviceMesh(pp=1, dp=1, cp=2, tp=2)
        shares = context_parallel_slices(collated, cp_size=2)
        for piece in build_rank_slices(collated, mesh, dp_index=0):
            info = piece.slice_info
            if info["tp_rank"] == 0:
                assert piece.token_count == shares[info["cp_rank"]]["token_count"] > 0
                assert piece.replicated_from is None
            else:
                assert piece.token_count == 0
                assert piece.replicated_from == mesh.ranks_where(dp=0, cp=info["cp_rank"], pp=0)[0]

    def test_cp_ranks_receive_disjoint_shares(self, collated):
        mesh = DeviceMesh(pp=1, dp=1, cp=4, tp=1)
        slices = build_rank_slices(collated, mesh, dp_index=0)
        assert sum(s.token_count for s in slices) == collated.total_tokens()

    def test_later_pp_stages_marked_metadata_only(self, collated):
        mesh = DeviceMesh(pp=4, dp=1, cp=1, tp=1)
        slices = build_rank_slices(collated, mesh, dp_index=0)
        by_rank = {s.rank: s for s in slices}
        middle_ranks = mesh.ranks_where(pp=1) + mesh.ranks_where(pp=2)
        assert all(by_rank[rank].metadata_only for rank in middle_ranks)
