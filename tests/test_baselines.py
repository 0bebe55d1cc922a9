"""Unit tests for the baseline dataloader architecture models."""

from __future__ import annotations

import pytest

from repro.baselines import (
    ALL_BASELINES,
    CachewLoader,
    MegaScaleArchitectureModel,
    PecanLoader,
    RayDataLoader,
    TfDataServiceLoader,
    TorchColocatedLoader,
)
from repro.baselines.base import estimate_transform_pipeline_latency
from repro.data.synthetic import build_source_catalog, navit_like_spec
from repro.parallelism.mesh import DeviceMesh
from repro.storage.filesystem import SimulatedFileSystem


@pytest.fixture()
def mesh_288():
    """TP=4, PP=8, DP=9 (the paper's 288-GPU trial)."""
    return DeviceMesh(pp=8, dp=9, cp=1, tp=4, gpus_per_node=16)


def build(cls, catalog, mesh, **kwargs):
    defaults = {"samples_per_dp_step": 32, "num_microbatches": 4}
    defaults.update(kwargs)
    return cls(catalog, mesh, **defaults)


class TestStructuralDifferences:
    def test_torch_runs_one_client_per_rank(self, small_catalog, mesh_288):
        loader = build(TorchColocatedLoader, small_catalog, mesh_288)
        assert loader.loader_clients() == mesh_288.world_size

    def test_megascale_runs_far_fewer_clients(self, small_catalog, mesh_288):
        torch = build(TorchColocatedLoader, small_catalog, mesh_288)
        ours = build(MegaScaleArchitectureModel, small_catalog, mesh_288)
        assert ours.loader_clients() < torch.loader_clients() / 4

    def test_memory_breakdown_source_state_dominates_for_many_sources(self, filesystem, mesh_288):
        """Fig. 4: with hundreds of sources, file-access state dominates memory."""
        from repro.data.synthetic import build_source_catalog, navit_like_spec

        catalog = build_source_catalog(
            navit_like_spec(num_sources=100, samples_per_source=4), filesystem
        )
        breakdown = build(TorchColocatedLoader, catalog, mesh_288).memory_breakdown()
        assert breakdown["source_state"] > 0.7 * sum(breakdown.values())

    def test_megascale_memory_far_below_torch(self, small_catalog, mesh_288):
        torch = build(TorchColocatedLoader, small_catalog, mesh_288)
        ours = build(MegaScaleArchitectureModel, small_catalog, mesh_288)
        ratio = torch.per_node_memory_bytes() / ours.per_node_memory_bytes()
        assert ratio > 3.0

    def test_ray_data_memory_below_torch(self, small_catalog, mesh_288):
        torch = build(TorchColocatedLoader, small_catalog, mesh_288)
        ray = build(RayDataLoader, small_catalog, mesh_288)
        assert ray.per_node_memory_bytes() < torch.per_node_memory_bytes()

    def test_pecan_reordering_cuts_fetch_latency_vs_tfdata(self, small_catalog, mesh_288):
        tf = build(TfDataServiceLoader, small_catalog, mesh_288)
        pecan = build(PecanLoader, small_catalog, mesh_288)
        assert pecan.fetch_latency_s() < tf.fetch_latency_s()

    def test_cachew_adds_cache_memory(self, small_catalog, mesh_288):
        cachew = build(CachewLoader, small_catalog, mesh_288).memory_breakdown()
        assert cachew["cache"] > 0

    def test_megascale_fetch_latency_same_order_as_baselines(self, small_catalog, mesh_288):
        """The paper accepts a minor coordination overhead on fetch latency as
        long as it is maskable by training compute (Fig. 12 middle panel)."""
        ours = build(MegaScaleArchitectureModel, small_catalog, mesh_288).fetch_latency_s()
        baseline_latencies = [
            build(cls, small_catalog, mesh_288).fetch_latency_s() for cls in ALL_BASELINES.values()
        ]
        assert ours < 5.0 * min(baseline_latencies)


class TestScalingBehaviour:
    def test_baseline_memory_grows_with_sources(self, filesystem, mesh_288):
        from repro.data.synthetic import build_source_catalog, navit_like_spec

        small = build_source_catalog(navit_like_spec(num_sources=10, samples_per_source=8), filesystem)
        fs2 = type(filesystem)()
        large = build_source_catalog(navit_like_spec(num_sources=80, samples_per_source=8), fs2)
        mem_small = build(TorchColocatedLoader, small, mesh_288).total_memory_bytes()
        mem_large = build(TorchColocatedLoader, large, mesh_288).total_memory_bytes()
        assert mem_large > 2.5 * mem_small

    def test_megascale_memory_grows_sublinearly_with_parallelism(self, small_catalog):
        small_mesh = DeviceMesh(pp=1, dp=4, cp=1, tp=1, gpus_per_node=4)
        big_mesh = DeviceMesh(pp=4, dp=4, cp=2, tp=2, gpus_per_node=16)
        torch_growth = (
            build(TorchColocatedLoader, small_catalog, big_mesh).total_memory_bytes()
            / build(TorchColocatedLoader, small_catalog, small_mesh).total_memory_bytes()
        )
        ours_growth = (
            build(MegaScaleArchitectureModel, small_catalog, big_mesh).total_memory_bytes()
            / build(MegaScaleArchitectureModel, small_catalog, small_mesh).total_memory_bytes()
        )
        assert ours_growth < torch_growth

    def test_worker_autoscaling_reacts_to_target_time(self, small_catalog, mesh_288):
        tight = build(TorchColocatedLoader, small_catalog, mesh_288, target_iteration_time_s=1.0)
        loose = build(TorchColocatedLoader, small_catalog, mesh_288, target_iteration_time_s=60.0)
        assert tight.workers_per_client() >= loose.workers_per_client()


class TestAssignmentsAndReports:
    def test_baseline_assignments_cover_samples(self, small_catalog, mesh_288, sample_factory):
        loader = build(TorchColocatedLoader, small_catalog, DeviceMesh(pp=1, dp=4))
        samples = [sample_factory(i, text_tokens=64 * (1 + i % 5)) for i in range(64)]
        assignments = loader.build_assignments(samples)
        assert len(assignments) == 4
        assigned = sum(len(mb) for bucket in assignments for mb in bucket)
        assert assigned == 64

    def test_megascale_assignments_are_balanced(self, small_catalog, sample_factory):
        mesh = DeviceMesh(pp=1, dp=4)
        ours = build(MegaScaleArchitectureModel, small_catalog, mesh)
        baseline = build(TorchColocatedLoader, small_catalog, mesh)
        samples = [sample_factory(i, text_tokens=2 ** (5 + i % 7)) for i in range(64)]

        def spread(assignments):
            costs = [
                sum(float(s.total_tokens) ** 2 for mb in bucket for s in mb)
                for bucket in assignments
            ]
            return max(costs) / max(1e-9, min(costs))

        assert spread(ours.build_assignments(samples)) < spread(baseline.build_assignments(samples))

    def test_evaluate_reports_all_fields(self, small_catalog, mesh_288):
        for cls in list(ALL_BASELINES.values()) + [MegaScaleArchitectureModel]:
            report = build(cls, small_catalog, mesh_288).evaluate()
            assert report.per_node_memory_bytes > 0
            assert report.fetch_latency_s > 0
            assert report.loader_clients > 0
            assert report.workers_per_client >= 1

    def test_transform_latency_estimates_cover_catalog(self, small_catalog):
        estimates = estimate_transform_pipeline_latency(small_catalog)
        assert set(estimates) == set(small_catalog.names())
        assert all(latency > 0 for latency in estimates.values())

    def test_transform_latency_estimates_are_pinned(self):
        """Fig. 5's catalog: one source of each modality, to the bit (the
        video source's keyframe cost comes from its guessed frame count)."""
        catalog = build_source_catalog(
            navit_like_spec(num_sources=100, samples_per_source=32, seed=5),
            SimulatedFileSystem(),
        )
        estimates = estimate_transform_pipeline_latency(catalog)
        assert {name: estimates[name] for name in FIG5_PINNED_ESTIMATES} == FIG5_PINNED_ESTIMATES
        assert {catalog.get(name).modality.value for name in FIG5_PINNED_ESTIMATES} == {
            "video", "image", "text", "audio"
        }


#: ``estimate_transform_pipeline_latency`` over Fig. 5's catalog, one source
#: per modality (video, image, text, audio).
FIG5_PINNED_ESTIMATES = {
    "navit_data/src000": 0.30484834308495695,
    "navit_data/src001": 0.5773631189653204,
    "navit_data/src003": 0.0015742159783438598,
    "navit_data/src012": 2.332372284534724,
}
