"""Property-based tests for core invariants: packing, ledgers, mesh, mixtures, DGraph."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columns import SampleColumns
from repro.core.dgraph import DGraph
from repro.core.framework import MegaScaleData, TrainingJobSpec
from repro.core.place_tree import ClientPlaceTree
from repro.data.mixture import MixtureSchedule
from repro.data.samples import Modality, SampleMetadata
from repro.metrics.memory import MemoryLedger
from repro.parallelism.mesh import DeviceMesh
from repro.transforms.microbatch import collate_columns_with_positions
from conftest import bucket_samples, plan_bins

# -- strategies -------------------------------------------------------------------

sample_lists = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=8192),  # text tokens
        st.integers(min_value=0, max_value=8192),  # image tokens
    ),
    min_size=1,
    max_size=48,
)

mesh_dims = st.tuples(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
)


def make_samples(spec):
    return [
        SampleMetadata(
            sample_id=index,
            source=f"src{index % 3}",
            modality=Modality.IMAGE if image else Modality.TEXT,
            text_tokens=text,
            image_tokens=image,
        )
        for index, (text, image) in enumerate(spec)
    ]


# -- packing ---------------------------------------------------------------------


def packed_collation(samples, max_len):
    """The kernel collation, lazily expanded fields included."""
    return collate_columns_with_positions(
        [sample.sample_id for sample in samples],
        np.array([sample.total_tokens for sample in samples], dtype=np.int64),
        max_len,
    )


@given(spec=sample_lists, max_len=st.integers(min_value=128, max_value=16384))
@settings(max_examples=60, deadline=None)
def test_packing_never_exceeds_max_length_and_loses_no_sample(spec, max_len):
    samples = make_samples(spec)
    collated = packed_collation(samples, max_len)
    assert all(seq.tokens <= max_len for seq in collated.sequences)
    packed_ids = sorted(sid for seq in collated.sequences for sid, _ in seq.segments)
    assert packed_ids == sorted(s.sample_id for s in samples)


@given(spec=sample_lists, max_len=st.integers(min_value=128, max_value=16384))
@settings(max_examples=40, deadline=None)
def test_rope_positions_length_matches_tokens(spec, max_len):
    collated = packed_collation(make_samples(spec), max_len)
    assert len(collated.position_ids) == collated.total_tokens()
    assert (collated.position_ids >= 0).all()
    # Positions restart at every segment and never reach its length.
    segment_lengths = [tokens for seq in collated.sequences for _, tokens in seq.segments]
    assert int((collated.position_ids == 0).sum()) == sum(1 for n in segment_lengths if n)
    assert int(collated.position_ids.max(initial=0)) == max(0, max(segment_lengths) - 1)


# -- memory ledger ---------------------------------------------------------------


def resummed(ledger) -> int:
    """A ledger's live bytes summed from scratch, adopted children included."""
    return sum(ledger._live.values()) + sum(resummed(child) for child in ledger._children)


@given(
    operations=st.lists(
        st.tuples(
            st.sampled_from(["charge", "release", "release_all", "adopt", "disown"]),
            st.integers(min_value=0, max_value=2),  # which ledger: node, actor, actor
            st.sampled_from(["cat", "dog", None]),
            st.integers(min_value=0, max_value=10**9),
        ),
        max_size=60,
    )
)
@settings(max_examples=100, deadline=None)
def test_ledger_never_negative(operations):
    node, *_ = ledgers = [MemoryLedger(name=str(index)) for index in range(3)]
    for op, which, category, amount in operations:
        ledger = ledgers[which]
        if op == "charge":
            ledger.charge(category or "cat", amount)
        elif op == "release":
            ledger.release(category or "cat", amount)
        elif op == "release_all":
            ledger.release_all()
        elif op == "adopt" and ledger is not node and ledger not in node._children:
            node.adopt(ledger)
        elif op == "disown":
            node.disown(ledger)
        for each in ledgers:
            # The incrementally kept total is the re-summed one, children included.
            assert each.total_bytes() == resummed(each) >= 0


# -- device mesh ------------------------------------------------------------------


@given(dims=mesh_dims)
@settings(max_examples=40, deadline=None)
def test_mesh_consumer_groups_partition_world(dims):
    pp, dp, cp, tp = dims
    mesh = DeviceMesh(pp=pp, dp=dp, cp=cp, tp=tp)
    for axis in ("DP", "CP", "WORLD"):
        groups = mesh.data_consumers(axis)
        ranks = sorted(rank for group in groups for rank in group)
        assert ranks == list(range(mesh.world_size))


@given(dims=mesh_dims)
@settings(max_examples=40, deadline=None)
def test_place_tree_fetching_ranks_one_per_broadcast_group(dims):
    pp, dp, cp, tp = dims
    mesh = DeviceMesh(pp=pp, dp=dp, cp=cp, tp=tp)
    tree = ClientPlaceTree(mesh)
    tree.mark_broadcast("TP")
    fetchers = tree.fetching_ranks()
    assert len(fetchers) == pp * dp * cp
    assert all(mesh.coordinate(rank).tp == 0 for rank in fetchers)


# -- mixtures ----------------------------------------------------------------------


@given(
    weights=st.dictionaries(
        st.sampled_from([f"s{i}" for i in range(6)]),
        st.floats(min_value=0.001, max_value=100.0),
        min_size=1,
        max_size=6,
    ),
    step=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=60, deadline=None)
def test_mixture_weights_always_normalized(weights, step):
    schedule = MixtureSchedule.static(weights)
    at_step = schedule.weights_at(step)
    assert abs(sum(at_step.values()) - 1.0) < 1e-9
    assert all(value >= 0 for value in at_step.values())


# -- dgraph -------------------------------------------------------------------------


@given(spec=sample_lists, dims=mesh_dims, microbatches=st.integers(min_value=1, max_value=6))
@settings(max_examples=40, deadline=None)
def test_dgraph_plan_assigns_every_selected_sample_once(spec, dims, microbatches):
    pp, dp, cp, tp = dims
    samples = make_samples(spec)
    tree = ClientPlaceTree(DeviceMesh(pp=pp, dp=dp, cp=cp, tp=tp))
    dgraph = DGraph.from_buffer_infos(SampleColumns.from_samples(samples)).init(tree)
    dgraph.distribute("DP").balance(num_microbatches=microbatches)
    plan = dgraph.plan()
    assigned = sorted(plan.module.rows.sample_ids.tolist())
    assert assigned == sorted(s.sample_id for s in samples)
    plan.module.validate()


# -- prefetching pipeline ------------------------------------------------------------


def _delivery_bytes(result):
    """Byte-level signature of a step's per-rank deliveries."""
    return {
        rank: [
            (
                piece.rank,
                piece.microbatch_index,
                piece.token_count,
                piece.payload_bytes,
                piece.metadata_only,
                piece.replicated_from,
            )
            for piece in delivery.slices
        ]
        for rank, delivery in sorted(result.deliveries.items())
    }


@given(seed=st.integers(min_value=0, max_value=31), depth=st.integers(min_value=1, max_value=3))
@settings(max_examples=6, deadline=None)
def test_prefetched_batches_byte_identical_to_synchronous(seed, depth):
    """For a fixed seed the async pipeline delivers exactly the sync batches.

    This is the determinism contract of the prefetching data plane: overlap
    changes *when* work happens, never *what* is delivered.
    """

    def deploy(prefetch_depth):
        return MegaScaleData.deploy(
            TrainingJobSpec(
                pp=1, dp=2, cp=1, tp=1, encoder=None, strategy="backbone_balance",
                samples_per_dp_step=4, num_microbatches=2, num_sources=3,
                samples_per_source=48, seed=seed, prefetch_depth=prefetch_depth,
            )
        )

    sync = deploy(0)
    prefetched = deploy(depth)
    try:
        for _ in range(3):
            a = sync.run_step()
            b = prefetched.run_step()
            assert a.step == b.step
            assert a.plan.source_demands == b.plan.source_demands
            assert _delivery_bytes(a) == _delivery_bytes(b)
            # Same samples, same per-rank payload bytes, same ranks.
            payload = [
                sum(d.total_payload_bytes() for d in r.deliveries.values()) for r in (a, b)
            ]
            assert payload[0] == payload[1]
    finally:
        sync.shutdown()
        prefetched.shutdown()


@given(
    seed=st.integers(min_value=0, max_value=15),
    depth=st.sampled_from([1, 2]),
    event_step=st.integers(min_value=1, max_value=4),
    event=st.sampled_from(["none", "flush_mixture", "reshard", "scale_up_down"]),
)
@settings(max_examples=10, deadline=None)
def test_prefetched_plans_byte_identical_to_synchronous_through_runtime_events(
    seed, depth, event_step, event
):
    """For any seed and any mid-run event (mixture swap with pipeline flush,
    trainer reshard, loader fleet scale-up **and** scale-down), every
    LoadingPlan — demands, mixture weights, fetching ranks, module/subplan
    assignments — and every delivered batch of the prefetching pipeline is
    byte-identical to the synchronous run's."""
    from repro.core.resharding import ReshardNotification

    def mixture():
        from repro.data.mixture import MixturePhase

        return MixtureSchedule.staged(
            [
                MixturePhase(0, {"navit_data/src000": 0.6, "navit_data/src001": 0.25,
                                 "navit_data/src002": 0.15}),
                MixturePhase(3 + (seed % 3), {"navit_data/src000": 0.1,
                                              "navit_data/src001": 0.45,
                                              "navit_data/src002": 0.45}),
            ]
        )

    def deploy(prefetch_depth):
        return MegaScaleData.deploy(
            TrainingJobSpec(
                pp=1, dp=2, cp=1, tp=1, encoder=None, strategy="backbone_balance",
                samples_per_dp_step=8, num_microbatches=2, num_sources=3,
                samples_per_source=48, seed=seed, prefetch_depth=prefetch_depth,
                mixture=mixture(),
            )
        )

    def apply_event(system):
        if event == "flush_mixture":
            system.set_mixture(
                MixtureSchedule.static(
                    {"navit_data/src000": 0.2, "navit_data/src001": 0.2,
                     "navit_data/src002": 0.6}
                ),
                flush_pending=True,
            )
        elif event == "reshard":
            system.handle_reshard(
                ReshardNotification(
                    step=event_step, new_mesh=DeviceMesh(pp=1, dp=4, cp=1, tp=1)
                )
            )
        elif event == "scale_up_down":
            system.scale_source("navit_data/src000", 2)

    prefetched = deploy(depth)
    sync = deploy(0)
    try:
        for step in range(7):
            if step == event_step:
                apply_event(prefetched)
                apply_event(sync)
            if event == "scale_up_down" and step == event_step + 2:
                prefetched.scale_source("navit_data/src000", 1)
                sync.scale_source("navit_data/src000", 1)
            a = prefetched.run_step()
            b = sync.run_step()
            assert a.step == b.step == step
            assert a.plan.source_demands == b.plan.source_demands
            assert a.plan.mixture_weights == b.plan.mixture_weights
            assert a.plan.fetching_ranks == b.plan.fetching_ranks
            assert set(a.plan.modules) == set(b.plan.modules)
            for name, module in a.plan.modules.items():
                other = b.plan.modules[name]
                assert plan_bins(module) == plan_bins(other), (step, name)
                assert bucket_samples(module) == bucket_samples(other), (step, name)
            assert _delivery_bytes(a) == _delivery_bytes(b)
        if event == "scale_up_down":
            assert prefetched.fleet.spawn_count() >= 1
            assert prefetched.fleet.retire_count() >= 1
    finally:
        prefetched.shutdown()
        sync.shutdown()
