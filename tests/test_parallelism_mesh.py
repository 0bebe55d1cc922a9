"""Unit tests for the hybrid-parallel device mesh."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.parallelism.mesh import DeviceMesh, ParallelDims


class TestParallelDims:
    def test_world_size(self):
        assert ParallelDims(pp=2, dp=3, cp=2, tp=4).world_size == 48

    def test_invalid_dims(self):
        with pytest.raises(ConfigurationError):
            ParallelDims(pp=0)


class TestDeviceMesh:
    def test_world_size_and_nodes(self):
        mesh = DeviceMesh(pp=2, dp=2, cp=2, tp=2, gpus_per_node=8)
        assert mesh.world_size == 16
        assert mesh.num_nodes == 2

    def test_coordinate_round_trip(self):
        mesh = DeviceMesh(pp=2, dp=2, cp=2, tp=2)
        for rank in range(mesh.world_size):
            coord = mesh.coordinate(rank)
            assert coord.rank == rank
            assert mesh.ranks_where(pp=coord.pp, dp=coord.dp, cp=coord.cp, tp=coord.tp) == [rank]

    def test_tp_is_innermost(self):
        mesh = DeviceMesh(pp=1, dp=1, cp=1, tp=4)
        assert [mesh.coordinate(r).tp for r in range(4)] == [0, 1, 2, 3]

    def test_out_of_range_rank(self):
        with pytest.raises(ConfigurationError):
            DeviceMesh(dp=2).coordinate(2)

    def test_invalid_gpus_per_node(self):
        with pytest.raises(ConfigurationError):
            DeviceMesh(gpus_per_node=0)

    def test_coordinates_list_every_rank_in_order(self):
        mesh = DeviceMesh(pp=2, dp=1, cp=1, tp=3)
        coords = mesh.coordinates()
        assert [coord.rank for coord in coords] == list(range(mesh.world_size))
        assert coords == [mesh.coordinate(rank) for rank in range(mesh.world_size)]
        coords.clear()  # a copy: the mesh keeps its own list
        assert len(mesh.coordinates()) == 6

    def test_axis_lookup_is_case_insensitive_and_checked(self):
        coord = DeviceMesh(pp=2, dp=2, cp=2, tp=2).coordinate(11)
        assert (coord.axis("pp"), coord.axis("DP"), coord.axis("cp"), coord.axis("Tp")) == (
            1, 0, 1, 1
        )
        with pytest.raises(ConfigurationError):
            coord.axis("EP")

    def test_size_per_axis(self):
        mesh = DeviceMesh(pp=2, dp=3, cp=1, tp=4)
        assert mesh.dims.as_dict() == {"PP": 2, "DP": 3, "CP": 1, "TP": 4}
        assert [mesh.size(axis) for axis in ("pp", "DP", "cp", "TP")] == [2, 3, 1, 4]


class TestGroups:
    def test_data_consumers_dp(self):
        mesh = DeviceMesh(pp=2, dp=2, cp=2, tp=2)
        groups = mesh.data_consumers("DP")
        assert len(groups) == 2
        assert sum(len(g) for g in groups) == mesh.world_size

    def test_data_consumers_cp(self):
        mesh = DeviceMesh(pp=1, dp=2, cp=2, tp=2)
        groups = mesh.data_consumers("CP")
        assert len(groups) == 4

    def test_data_consumers_world(self):
        mesh = DeviceMesh(pp=1, dp=2, cp=2, tp=1)
        groups = mesh.data_consumers("WORLD")
        assert len(groups) == 4
        assert all(len(g) == 1 for g in groups)

    def test_unknown_axis(self):
        with pytest.raises(ConfigurationError):
            DeviceMesh().data_consumers("EP")

    def test_describe_mentions_all_dims(self, vlm_mesh):
        text = vlm_mesh.describe()
        for token in ("PP=2", "DP=2", "CP=2", "TP=2"):
            assert token in text
