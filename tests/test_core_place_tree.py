"""Unit tests for the ClientPlaceTree topology abstraction."""

from __future__ import annotations

import pytest

from repro.core.place_tree import ClientPlaceTree
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


class TestStructure:
    def test_describe(self):
        mesh = DeviceMesh(pp=1, dp=4, cp=1, tp=4, gpus_per_node=8)
        tree = ClientPlaceTree(mesh)
        assert "DP=4" in tree.describe()
