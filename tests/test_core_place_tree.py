"""Unit tests for the ClientPlaceTree topology abstraction."""

from __future__ import annotations

import pytest

from repro.core.place_tree import ClientPlaceTree
from repro.errors import OrchestrationError
from repro.parallelism.mesh import DeviceMesh


def walk(node):
    """Every tree node under ``node``, depth-first."""
    yield node
    for child in node.children:
        yield from walk(child)


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
        assert len(tree.fetching_ranks()) == vlm_mesh.world_size


class TestStructure:
    def test_walk_covers_all_levels(self, vlm_mesh):
        tree = ClientPlaceTree(vlm_mesh)
        axes = {node.axis for node in walk(tree.root)}
        assert axes == {"ROOT", "PP", "DP", "CP", "TP"}

    def test_level_nodes_counts(self, vlm_mesh):
        tree = ClientPlaceTree(vlm_mesh)
        nodes = list(walk(tree.root))
        assert sum(node.axis == "DP" for node in nodes) == 2 * 2  # PP x DP
        assert sum(node.axis == "TP" for node in nodes) == vlm_mesh.world_size  # one leaf per rank

    def test_leaf_ranks_cover_world(self, vlm_mesh):
        tree = ClientPlaceTree(vlm_mesh)
        assert sorted(tree.root.leaf_ranks()) == list(range(vlm_mesh.world_size))

    def test_describe(self):
        mesh = DeviceMesh(pp=1, dp=4, cp=1, tp=4, gpus_per_node=8)
        tree = ClientPlaceTree(mesh)
        assert "DP=4" in tree.describe()
