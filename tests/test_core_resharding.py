"""Unit tests for elastic resharding."""

from __future__ import annotations

import pytest

from repro.core.data_constructor import DataConstructor
from repro.core.place_tree import ClientPlaceTree
from repro.core.resharding import ElasticResharder, ReshardNotification
from repro.parallelism.mesh import DeviceMesh


def make_constructors(mesh, count):
    return {
        f"constructor-{index}": DataConstructor(bucket_index=index, mesh=mesh, dp_index=index)
        for index in range(count)
    }


class TestPlanReshard:
    def test_scale_up_adds_constructors(self, vlm_mesh):
        tree = ClientPlaceTree(vlm_mesh)
        resharder = ElasticResharder(tree)
        new_mesh = DeviceMesh(pp=2, dp=4, cp=2, tp=2)
        report = resharder.plan_reshard(
            ReshardNotification(step=10, new_mesh=new_mesh), make_constructors(vlm_mesh, 2)
        )
        assert report.constructors_required == 4
        assert report.constructors_added == 2
        assert report.constructors_retired == 0
        assert report.new_world_size == 32

    def test_scale_down_retires_constructors(self, vlm_mesh):
        tree = ClientPlaceTree(vlm_mesh)
        resharder = ElasticResharder(tree)
        new_mesh = DeviceMesh(pp=2, dp=1, cp=2, tp=2)
        report = resharder.plan_reshard(
            ReshardNotification(step=1, new_mesh=new_mesh), make_constructors(vlm_mesh, 2)
        )
        assert report.constructors_required == 1
        assert report.constructors_retired == 1

    def test_latency_scales_with_constructor_count(self, vlm_mesh):
        tree = ClientPlaceTree(vlm_mesh)
        resharder = ElasticResharder(tree)
        notification = ReshardNotification(step=0, new_mesh=DeviceMesh(pp=1, dp=8, cp=1, tp=1))
        small = resharder.plan_reshard(notification, make_constructors(vlm_mesh, 2))
        large = resharder.plan_reshard(notification, make_constructors(vlm_mesh, 8))
        assert large.resharding_latency_s >= small.resharding_latency_s


class TestApply:
    def test_apply_updates_constructors_and_tree(self, vlm_mesh):
        tree = ClientPlaceTree(vlm_mesh)
        tree.mark_broadcast("TP")
        resharder = ElasticResharder(tree)
        constructors = make_constructors(vlm_mesh, 2)
        new_mesh = DeviceMesh(pp=1, dp=2, cp=1, tp=2)
        report = resharder.reshard(ReshardNotification(step=4, new_mesh=new_mesh), constructors)
        assert resharder.tree.mesh is new_mesh
        assert "TP" in resharder.tree.broadcast_axes
        for name, bucket in report.reassigned_buckets.items():
            assert constructors[name].mesh is new_mesh
            assert constructors[name].dp_index == bucket

    def test_reassignment_is_dense(self, vlm_mesh):
        tree = ClientPlaceTree(vlm_mesh)
        resharder = ElasticResharder(tree)
        constructors = make_constructors(vlm_mesh, 4)
        new_mesh = DeviceMesh(pp=2, dp=2, cp=2, tp=2)
        report = resharder.reshard(ReshardNotification(step=0, new_mesh=new_mesh), constructors)
        assert sorted(report.reassigned_buckets.values()) == [0, 1]
