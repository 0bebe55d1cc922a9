"""Unit tests for the ClientPlaceTree topology abstraction."""

from __future__ import annotations

import pytest

from repro.core.place_tree import ClientPlaceTree
from repro.core.resharding import ElasticResharder, ReshardNotification
from repro.errors import OrchestrationError
from repro.parallelism.mesh import DeviceMesh


class TestConsumers:
    def test_num_consumers_per_axis(self, vlm_mesh):
        tree = ClientPlaceTree(vlm_mesh)
        assert tree.num_consumers("DP") == 2
        assert tree.num_consumers("CP") == 4
        assert tree.num_consumers("TP") == 8
        assert tree.num_consumers("PP") == 2
        assert tree.num_consumers("WORLD") == 16

    def test_unknown_axis(self, vlm_mesh):
        tree = ClientPlaceTree(vlm_mesh)
        with pytest.raises(OrchestrationError):
            tree.num_consumers("EP")


class TestBroadcast:
    def test_tp_broadcast_excludes_nonzero_tp(self, vlm_mesh):
        tree = ClientPlaceTree(vlm_mesh)
        tree.mark_broadcast("TP")
        fetchers = tree.fetching_ranks()
        assert all(vlm_mesh.coordinate(rank).tp == 0 for rank in fetchers)
        assert len(fetchers) == vlm_mesh.world_size // 2

    def test_tp_and_cp_broadcast_compose(self, vlm_mesh):
        tree = ClientPlaceTree(vlm_mesh)
        tree.mark_broadcast("TP")
        tree.mark_broadcast("CP")
        fetchers = tree.fetching_ranks()
        assert len(fetchers) == vlm_mesh.world_size // 4
        assert tree.broadcast_axes == {"TP", "CP"}

    def test_invalid_broadcast_axis(self, vlm_mesh):
        tree = ClientPlaceTree(vlm_mesh)
        with pytest.raises(OrchestrationError):
            tree.mark_broadcast("DP")

    def test_no_broadcast_all_ranks_fetch(self, vlm_mesh):
        tree = ClientPlaceTree(vlm_mesh)
        assert sorted(tree.fetching_ranks()) == list(range(vlm_mesh.world_size))

    def test_a_new_broadcast_axis_changes_the_fetching_ranks(self, vlm_mesh):
        tree = ClientPlaceTree(vlm_mesh)
        tree.mark_broadcast("TP")
        tp_only = tree.fetching_ranks()
        tree.mark_broadcast("tp")  # every plan re-declares TP: same answer
        assert tree.fetching_ranks() == tp_only
        tree.mark_broadcast("CP")
        both = tree.fetching_ranks()
        assert both == [r for r in tp_only if vlm_mesh.coordinate(r).cp == 0]
        assert len(both) == len(tp_only) // 2

    def test_each_call_returns_its_own_list(self, vlm_mesh):
        tree = ClientPlaceTree(vlm_mesh)
        first = tree.fetching_ranks()
        first.clear()
        assert tree.fetching_ranks() == list(range(vlm_mesh.world_size))
        assert tree.fetching_ranks() is not tree.fetching_ranks()

    def test_a_reshard_changes_the_fetching_ranks(self, vlm_mesh):
        tree = ClientPlaceTree(vlm_mesh)
        tree.mark_broadcast("TP")
        before = tree.fetching_ranks()
        resharder = ElasticResharder(tree)
        new_mesh = DeviceMesh(pp=2, dp=4, cp=2, tp=2, gpus_per_node=8)
        resharder.reshard(ReshardNotification(step=1, new_mesh=new_mesh), {})
        after = resharder.tree.fetching_ranks()
        assert len(after) == 2 * len(before)
        assert after == [r for r in range(new_mesh.world_size) if new_mesh.coordinate(r).tp == 0]
        assert tree.fetching_ranks() == before


class TestStructure:
    def test_describe(self):
        mesh = DeviceMesh(pp=1, dp=4, cp=1, tp=4, gpus_per_node=8)
        tree = ClientPlaceTree(mesh)
        assert "DP=4" in tree.describe()
