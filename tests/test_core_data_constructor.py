"""Unit tests for Data Constructor actors."""

from __future__ import annotations

import pytest

from repro.actors.runtime import ActorSystem, ClusterSpec
from repro.core.assembly import PreparedColumns
from repro.core.data_constructor import DataConstructor
from repro.core.plans import ModulePlan
from repro.errors import PlanError
from repro.parallelism.mesh import DeviceMesh
from repro.transforms import microbatch
from repro.transforms.microbatch import Microbatch, collate_with_positions
from repro.transforms.parallelism import build_rank_slices
from repro.utils.units import GIB
from conftest import assignment_of, prepared_rows
from test_core_source_loader import THREE_STEP_DELIVERIES, three_step_vlm_deliveries


def make_plan(sample_factory, buckets=2, microbatches=2, tokens=128):
    plan = ModulePlan(module="backbone", axis="DP", num_buckets=buckets, num_microbatches=microbatches)
    sid = 0
    for bucket in range(buckets):
        for mb in range(microbatches):
            samples = tuple(sample_factory(sid + k, text_tokens=tokens) for k in range(2))
            sid += 2
            plan.assignments.append(
                assignment_of(bucket, mb, samples)
            )
    return plan


def prepared_for(plan) -> PreparedColumns:
    """The hand-off a loader would publish for every sample of ``plan``."""
    return prepared_rows(
        [
            (m.sample_id, m.text_tokens, m.image_tokens, m.raw_bytes)
            for assignment in plan.assignments
            for m in assignment.samples
        ]
    )


@pytest.fixture()
def system():
    return ActorSystem(ClusterSpec(accelerator_nodes=1, cpu_pods=1))


def spawn_constructor(system, mesh, dp_index=0, **kwargs):
    return system.create_actor(
        lambda: DataConstructor(bucket_index=dp_index, mesh=mesh, dp_index=dp_index, **kwargs),
        name=f"constructor-{dp_index}",
        memory_bytes=GIB,
    )


class TestConstruct:
    def test_construct_and_deliver(self, system, vlm_mesh, sample_factory):
        handle = spawn_constructor(system, vlm_mesh)
        plan = make_plan(sample_factory)
        stats = handle.call("construct", 0, plan, prepared_for(plan))
        assert stats["num_microbatches"] == 2
        constructor = handle.instance()
        served = constructor.ranks_served(0)
        assert set(served) == set(vlm_mesh.ranks_where(dp=0))
        delivery = handle.call("get_batch", 0, served[0])
        assert delivery.rank == served[0]
        assert len(delivery.slices) == 2

    def test_missing_prepared_sample_rejected(self, system, vlm_mesh, sample_factory):
        handle = spawn_constructor(system, vlm_mesh)
        plan = make_plan(sample_factory)
        with pytest.raises(PlanError):
            handle.call("construct", 0, plan, PreparedColumns.empty())

    def test_plan_without_bucket_rejected(self, system, vlm_mesh, sample_factory):
        handle = spawn_constructor(system, vlm_mesh, dp_index=1)
        plan = ModulePlan(module="backbone", axis="DP", num_buckets=2, num_microbatches=1)
        plan.assignments.append(
            assignment_of(0, 0, [sample_factory(0)])
        )
        with pytest.raises(PlanError):
            handle.call("construct", 0, plan, prepared_for(plan))

    def test_get_batch_unknown_step(self, system, vlm_mesh):
        handle = spawn_constructor(system, vlm_mesh)
        with pytest.raises(PlanError):
            handle.call("get_batch", 5, 0)

    def test_get_batch_foreign_rank(self, system, vlm_mesh, sample_factory):
        handle = spawn_constructor(system, vlm_mesh, dp_index=0)
        plan = make_plan(sample_factory)
        handle.call("construct", 0, plan, prepared_for(plan))
        foreign_rank = vlm_mesh.ranks_where(dp=1)[0]
        with pytest.raises(PlanError):
            handle.call("get_batch", 0, foreign_rank)


class TestParallelismSharing:
    def test_tp_broadcast_saves_bytes(self, system, sample_factory):
        mesh = DeviceMesh(pp=1, dp=1, cp=1, tp=4)
        with_bcast = spawn_constructor(system, mesh)
        plan = make_plan(sample_factory, buckets=1)
        with_bcast.call("construct", 0, plan, prepared_for(plan))
        assert with_bcast.instance().stats.broadcast_bytes_saved > 0

    def test_memory_released_after_step(self, system, vlm_mesh, sample_factory):
        handle = spawn_constructor(system, vlm_mesh)
        plan = make_plan(sample_factory)
        handle.call("construct", 0, plan, prepared_for(plan))
        constructor = handle.instance()
        assert constructor.ledger.live_bytes("constructed_batch") > 0
        handle.call("release_step", 0)
        assert constructor.ledger.live_bytes("constructed_batch") == 0
        assert constructor.staged_steps() == []

    def test_pp_later_stage_gets_metadata_only(self, system, sample_factory):
        mesh = DeviceMesh(pp=4, dp=1, cp=1, tp=1)
        handle = spawn_constructor(system, mesh)
        plan = make_plan(sample_factory, buckets=1)
        handle.call("construct", 0, plan, prepared_for(plan))
        constructor = handle.instance()
        middle_rank = mesh.ranks_where(pp=1)[0]
        delivery = constructor.get_batch(0, middle_rank)
        assert all(piece.metadata_only for piece in delivery.slices)
        first_rank = mesh.ranks_where(pp=0)[0]
        first_delivery = constructor.get_batch(0, first_rank)
        assert first_delivery.total_tokens() > 0


class TestReshardAndCheckpoint:
    def test_reshard_drops_staged_and_adopts_mesh(self, system, vlm_mesh, sample_factory):
        handle = spawn_constructor(system, vlm_mesh)
        plan = make_plan(sample_factory)
        handle.call("construct", 0, plan, prepared_for(plan))
        new_mesh = DeviceMesh(pp=1, dp=2, cp=1, tp=2)
        handle.call("reshard", new_mesh, 1)
        constructor = handle.instance()
        assert constructor.mesh is new_mesh
        assert constructor.dp_index == 1
        assert constructor.staged_steps() == []
        assert constructor.ledger.live_bytes("constructed_batch") == 0

    def test_deliveries_after_reshard_follow_the_new_mesh(self, system, vlm_mesh, sample_factory):
        """The per-mesh rank layout is rebuilt by reshard(), not kept from __init__."""
        handle = spawn_constructor(system, vlm_mesh)
        plan = make_plan(sample_factory, tokens=101)
        handle.call("construct", 0, plan, prepared_for(plan))
        new_mesh = DeviceMesh(pp=4, dp=2, cp=3, tp=1)
        handle.call("reshard", new_mesh, 1)
        handle.call("construct", 1, plan, prepared_for(plan))
        constructor = handle.instance()
        expected: dict[int, list] = {}
        for assignment in plan.bucket_assignments(0):
            collated = collate_with_positions(
                Microbatch(index=assignment.microbatch_index, samples=list(assignment.samples)),
                constructor.max_sequence_length,
            )
            for piece in build_rank_slices(collated, new_mesh):
                if piece.rank in new_mesh.ranks_where(dp=1):
                    expected.setdefault(piece.rank, []).append(piece)
        assert constructor.ranks_served(1) == new_mesh.ranks_where(dp=1)
        for rank, slices in expected.items():
            assert constructor.get_batch(1, rank).slices == slices

    def test_state_dict_roundtrip(self, system, vlm_mesh, sample_factory):
        handle = spawn_constructor(system, vlm_mesh)
        state = handle.instance().state_dict()
        handle.instance().load_state_dict(state)
        other = DataConstructor(bucket_index=3, mesh=vlm_mesh, dp_index=3)
        with pytest.raises(PlanError):
            other.load_state_dict(state)

    def test_heartbeat_payload(self, system, vlm_mesh):
        handle = spawn_constructor(system, vlm_mesh)
        payload = handle.call("heartbeat_payload")
        assert payload["bucket"] == 0


class TestLengthsOnlyAssembly:
    """The step path slices from sequence lengths: nothing per token or per segment is built."""

    @pytest.mark.parametrize("prefetch_depth", [0, 2])
    def test_no_per_token_array_is_built_on_the_step_path(self, monkeypatch, prefetch_depth):
        def dead_store(*args, **kwargs):
            raise AssertionError("a collation was materialised on the step path")

        monkeypatch.setattr(microbatch, "_positions_from_blocks", dead_store)
        monkeypatch.setattr(microbatch, "PackedSequence", dead_store)
        assert three_step_vlm_deliveries(prefetch_depth) == THREE_STEP_DELIVERIES
