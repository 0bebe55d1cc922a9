"""Unit tests for parallelism transformations (DP/CP/TP/PP views)."""

from __future__ import annotations

import pytest

from repro.errors import TransformError
from repro.parallelism.mesh import DeviceMesh
from repro.transforms.microbatch import Microbatch, PackingCollator
from repro.transforms.parallelism import (
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
        replicas = tensor_parallel_replicas(1000, tp_size=4, broadcast=True)
        assert replicas[0]["token_count"] == 1000
        assert all(r["token_count"] == 0 for r in replicas[1:])
        assert all(r["via_broadcast"] for r in replicas[1:])

    def test_no_broadcast_all_fetch(self):
        replicas = tensor_parallel_replicas(1000, tp_size=4, broadcast=False)
        assert all(r["token_count"] == 1000 for r in replicas)

    def test_invalid_tp_size(self):
        with pytest.raises(TransformError):
            tensor_parallel_replicas(10, 0, True)


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

    def test_tp_broadcast_reduces_fetched_bytes(self, collated):
        mesh = DeviceMesh(pp=1, dp=1, cp=1, tp=4)
        with_bcast = build_rank_slices(collated, mesh, dp_index=0, broadcast_tp=True)
        without = build_rank_slices(collated, mesh, dp_index=0, broadcast_tp=False)
        assert sum(s.payload_bytes for s in with_bcast) < sum(s.payload_bytes for s in without)

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
