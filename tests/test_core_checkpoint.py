"""Durable control-plane checkpoints and bounded-replay recovery.

Covers the PR's tentpole — pluggable :class:`CheckpointStore` backends, the
Planner's bounded plan window, and whole-run ``save_checkpoint``/``restore``
with byte-identical continuation — plus the elasticity bug backlog that rides
along: ``target_workers_per_actor`` application, the reservation queue for
rejected placements, and hot-standby promotion of fleet mirrors.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.actors.gcs import GlobalControlStore
from repro.chaos import ChaosEngine, FaultEvent, FaultPlan
from repro.core.checkpoint import (
    CheckpointError,
    InMemoryCheckpointStore,
    SqliteCheckpointStore,
)
from repro.core.fault_tolerance import (
    COORDINATOR_RESTART_LATENCY_S,
    REPLAY_LATENCY_PER_STEP_S,
)
from repro.core.framework import (
    MANIFEST_NAMESPACE,
    RUN_NAMESPACE,
    MegaScaleData,
    TrainingJobSpec,
)
from repro.core.planner import PLAN_NAMESPACE
from repro.core.plans import LoaderScalingDirective, PlanRecord, ScalingPlan
from repro.core.source_loader import SourceLoader
from repro.data.mixture import MixturePhase, MixtureSchedule
from repro.errors import ConfigurationError, StorageError
from conftest import buffered_ids


def make_job(prefetch_depth: int = 0, seed: int = 11, **overrides) -> TrainingJobSpec:
    spec = dict(
        pp=1, dp=2, cp=1, tp=1, encoder=None, strategy="backbone_balance",
        samples_per_dp_step=4, num_microbatches=2, num_sources=3,
        samples_per_source=64, seed=seed, prefetch_depth=prefetch_depth,
    )
    spec.update(overrides)
    return TrainingJobSpec(**spec)


def delivery_signature(result):
    """Byte-level signature of a step's per-rank deliveries."""
    return {
        rank: [
            (piece.rank, piece.microbatch_index, piece.token_count,
             piece.payload_bytes, piece.metadata_only, piece.replicated_from)
            for piece in delivery.slices
        ]
        for rank, delivery in sorted(result.deliveries.items())
    }


def stored_namespaces(store) -> list[str]:
    """Every namespace holding a row in ``store`` (the store interface itself
    does not enumerate namespaces)."""
    if isinstance(store, SqliteCheckpointStore):
        rows = store._read("SELECT DISTINCT namespace FROM checkpoints ORDER BY namespace", ())
        return [namespace for (namespace,) in rows]
    return sorted(namespace for namespace, entries in store._data.items() if entries)


def run_signature(system, steps):
    """Demands + delivery signatures for the next ``steps`` steps."""
    trace = []
    for _ in range(steps):
        result = system.run_step()
        trace.append((result.step, result.plan.source_demands, delivery_signature(result)))
    return trace


# -- checkpoint store backends ------------------------------------------------------


@pytest.fixture(params=["memory", "sqlite"])
def store(request):
    if request.param == "memory":
        yield InMemoryCheckpointStore()
    else:
        backend = SqliteCheckpointStore()
        yield backend
        backend.close()


class TestCheckpointStores:
    def test_save_load_latest_roundtrip(self, store):
        assert store.load_latest("ns") is None
        assert store.load("ns", 0) is None
        for step in (0, 5, 10):
            store.save("ns", step, {"step": step})
        assert store.steps("ns") == [0, 5, 10]
        assert store.load("ns", 5) == {"step": 5}
        assert store.load_latest("ns") == (10, {"step": 10})
        assert store.load_latest("other") is None

    def test_overwrite_replaces_payload(self, store):
        store.save("ns", 3, "old")
        store.save("ns", 3, "new")
        assert store.steps("ns") == [3]
        assert store.load("ns", 3) == "new"

    def test_delete_from_and_prune_below(self, store):
        for step in range(6):
            store.save("ns", step, step)
        assert store.delete_from("ns", 4) == 2
        assert store.steps("ns") == [0, 1, 2, 3]
        assert store.delete_from("ns", 9) == 0
        assert store.delete_below("ns", 2) == 2
        assert store.steps("ns") == [2, 3]
        assert store.load_latest("ns") == (3, 3)

    def test_namespaces_are_isolated(self, store):
        store.save("a", 0, "a0")
        store.save("b", 0, "b0")
        store.delete_from("a", 0)
        assert store.load("b", 0) == "b0"
        assert store.load("a", 0) is None

    def test_sqlite_pickles_real_control_plane_payloads(self, filesystem, small_catalog):
        """Loader replay snapshots and generated plans survive the durable
        medium byte-for-byte — the contract the in-memory backend skips."""
        backend = SqliteCheckpointStore()
        loader = SourceLoader(small_catalog.sources()[0], filesystem, buffer_size=8)
        loader.on_start()
        snapshot = loader.replay_checkpoint()
        backend.save("loader/test", 0, snapshot)
        restored = backend.load("loader/test", 0)
        assert restored is not snapshot
        assert restored["cursor"] == snapshot["cursor"]
        assert restored["buffer"] == snapshot["buffer"]
        assert all(type(sample_id) is int for sample_id in restored["buffer"])
        fresh = SourceLoader(small_catalog.sources()[0], filesystem, buffer_size=8)
        fresh.on_start()
        fresh.restore_replay_checkpoint(restored)
        assert buffered_ids(fresh) == buffered_ids(loader)
        backend.close()

    def test_sqlite_rejects_unpicklable_payload(self):
        backend = SqliteCheckpointStore()
        with pytest.raises(CheckpointError):
            backend.save("ns", 0, {"callback": lambda: None})
        backend.close()

    def test_sqlite_mirrors_bytes_into_filesystem(self, filesystem):
        backend = SqliteCheckpointStore(filesystem=filesystem)
        backend.save("planner/plans", 7, {"step": 7})
        assert filesystem.stat("/checkpoints/planner/plans/7").size_bytes > 0
        backend.close()


# -- planner bounded plan window ----------------------------------------------------


class TestPlannerBoundedWindow:
    def test_memory_window_trims_but_store_keeps_everything(self):
        system = MegaScaleData.deploy(make_job(replay_window=4, checkpoint_backend="sqlite"))
        try:
            for _ in range(10):
                system.run_step()
            planner = system.planner_handle.instance()
            # In-memory history is bounded by the replay window...
            assert len(planner._plan_history) <= 4
            # ...but the durable store holds the full run,
            assert system.checkpoint_store.steps(PLAN_NAMESPACE) == list(range(10))
            # and history queries transparently merge the persisted prefix.
            assert [p.step for p in planner.plan_history()] == list(range(10))
            assert [p.step for p in planner.plans_since(6)] == [7, 8, 9]
            # The window and the store serve the same record, value for value.
            store = system.checkpoint_store
            window = list(planner._plan_history)
            assert all(type(record) is PlanRecord for record in planner.plan_history())
            assert window == [store.load(PLAN_NAMESPACE, r.step) for r in window]
            # A durable row holds the demanded ids, not per-sample metadata.
            for record in planner.plan_history():
                ((blob,),) = store._read(
                    "SELECT payload FROM checkpoints WHERE namespace = ? AND step = ?",
                    (PLAN_NAMESPACE, record.step),
                )
                assert b"SampleMetadata" not in blob
                ids = sum(len(ids) for ids in record.source_demands.values())
                assert ids > 0
                assert len(blob) < 16 * ids + 1024
        finally:
            system.shutdown()

    def test_replay_from_gcs_restores_bounded_suffix(self):
        system = MegaScaleData.deploy(make_job(replay_window=4, checkpoint_backend="memory"))
        try:
            for _ in range(10):
                system.run_step()
            planner = system.planner_handle.instance()
            planner._plan_history = []
            resume_at = planner.replay_from_gcs()
            assert resume_at == 10
            # Bounded: the restart rehydrates at most the window, not the run.
            assert [p.step for p in planner._plan_history] == [6, 7, 8, 9]
        finally:
            system.shutdown()

    def test_truncate_history_drops_store_suffix_too(self):
        system = MegaScaleData.deploy(make_job(replay_window=4, checkpoint_backend="memory"))
        try:
            for _ in range(6):
                system.run_step()
            planner = system.planner_handle.instance()
            planner.truncate_history(3)
            assert system.checkpoint_store.steps(PLAN_NAMESPACE) == [0, 1, 2]
            assert [p.step for p in planner.plan_history()] == [0, 1, 2]
        finally:
            system.shutdown()


# -- satellite: target_workers_per_actor is applied ---------------------------------


class TestWorkerResizeDirective:
    def test_worker_directive_resizes_pool_and_reservation(self):
        """Regression: a directive whose only change is
        ``target_workers_per_actor`` used to be silently ignored."""
        system = MegaScaleData.deploy(make_job())
        try:
            source = "navit_data/src000"
            planner = system.planner_handle.instance()
            group = system.fleet._by_source[source][0]
            old_workers = group.workers_per_actor
            node_free = {n.name: n.available_cpu for n in system.system.nodes}
            plan = ScalingPlan(
                step=1,
                directives=[
                    LoaderScalingDirective(
                        source=source,
                        target_actors=system.fleet.member_count(source),
                        target_workers_per_actor=old_workers + 2,
                    )
                ],
            )
            system.fleet.apply_scaling(plan, step=1, planner=planner)
            # The loader's transform pool actually grew...
            assert group.canonical.instance().num_workers == old_workers + 2
            assert group.workers_per_actor == old_workers + 2
            # ...and the node re-booked two more cores for it.
            node = system.system.actor_node(group.canonical.name)
            booked = {
                n.name: node_free[n.name] - n.available_cpu for n in system.system.nodes
            }
            assert booked[node] == pytest.approx(2.0)
            resizes = [c for c in system.fleet.changes if c.kind == "resize"]
            assert resizes and f"{old_workers} -> {old_workers + 2}" in resizes[-1].detail
            # Shrinking back releases the reservation again.
            system.fleet.resize_workers(source, old_workers, step=2)
            assert group.canonical.instance().num_workers == old_workers
            assert all(
                n.available_cpu == pytest.approx(node_free[n.name])
                for n in system.system.nodes
            )
        finally:
            system.shutdown()

    def test_resize_rejection_keeps_old_pool(self):
        system = MegaScaleData.deploy(make_job())
        try:
            source = "navit_data/src000"
            group = system.fleet._by_source[source][0]
            old_workers = group.workers_per_actor
            for node in system.system.nodes:
                node.reserve("filler", node.available_cpu - 0.25, 0)
            assert not system.fleet.resize_workers(source, old_workers + 8, step=1)
            assert group.canonical.instance().num_workers == old_workers
            rejected = [
                c for c in system.fleet.changes
                if c.kind == "resize" and "rejected" in c.detail
            ]
            assert rejected
        finally:
            system.shutdown()

    def test_new_mirrors_inherit_resized_pool(self):
        system = MegaScaleData.deploy(make_job())
        try:
            source = "navit_data/src000"
            planner = system.planner_handle.instance()
            group = system.fleet._by_source[source][0]
            target = group.workers_per_actor + 1
            system.fleet.resize_workers(source, target, step=0)
            mirror = system.fleet.spawn_member(source, step=1, planner=planner)
            assert mirror is not None
            assert mirror.instance().num_workers == target
        finally:
            system.shutdown()


# -- satellite: reservation queue for rejected placements ---------------------------


class TestReservationQueue:
    def test_rejected_spawn_queues_and_fires_when_capacity_frees(self):
        system = MegaScaleData.deploy(make_job())
        try:
            source = "navit_data/src000"
            planner = system.planner_handle.instance()
            before = system.fleet.member_count(source)
            filler = {n.name: n.available_cpu - 0.25 for n in system.system.nodes}
            for node in system.system.nodes:
                node.reserve("filler", filler[node.name], 0)
            plan = ScalingPlan(
                step=1,
                directives=[
                    LoaderScalingDirective(
                        source=source, target_actors=before + 1,
                        target_workers_per_actor=0,
                    )
                ],
            )
            system.fleet.apply_scaling(plan, step=1, planner=planner)
            assert system.fleet.member_count(source) == before
            assert system.fleet.rejection_count() >= 1
            assert system.fleet.pending_spawn_count() == 1
            # Still no capacity: the retry is a quiet probe, not a new reject.
            rejects_before = system.fleet.rejection_count()
            assert system.fleet.retry_pending_spawns(2, planner) == 0
            assert system.fleet.rejection_count() == rejects_before
            # A drain-retire elsewhere frees the node: the queued reservation
            # fires with no fresh directive.
            for node in system.system.nodes:
                node.release("filler", filler[node.name], 0)
            assert system.fleet.retry_pending_spawns(3, planner) == 1
            assert system.fleet.member_count(source) == before + 1
            assert system.fleet.pending_spawn_count() == 0
        finally:
            system.shutdown()

    def test_run_step_retries_pending_spawns_after_capacity_frees(self):
        """The integrated path: the step boundary drains the queue once a
        blocked node frees up, without the scaler re-issuing anything."""
        system = MegaScaleData.deploy(make_job())
        try:
            source = "navit_data/src001"
            planner = system.planner_handle.instance()
            before = system.fleet.member_count(source)
            filler = {n.name: n.available_cpu - 0.25 for n in system.system.nodes}
            for node in system.system.nodes:
                node.reserve("filler", filler[node.name], 0)
            system.fleet.apply_scaling(
                ScalingPlan(
                    step=0,
                    directives=[
                        LoaderScalingDirective(
                            source=source, target_actors=before + 1,
                            target_workers_per_actor=0,
                        )
                    ],
                ),
                step=0,
                planner=planner,
            )
            assert system.fleet.pending_spawn_count() == 1
            system.run_step()  # saturated: queue survives the boundary
            assert system.fleet.pending_spawn_count() == 1
            for node in system.system.nodes:
                node.release("filler", filler[node.name], 0)
            system.run_step()  # freed: boundary fires the queued spawn
            assert system.fleet.pending_spawn_count() == 0
            assert system.fleet.member_count(source) == before + 1
        finally:
            system.shutdown()


# -- satellite: hot-standby promotion of fleet mirrors ------------------------------


class TestHotStandbyPromotion:
    def test_canonical_failure_promotes_mirror_with_zero_replay(self):
        """A failed canonical whose group holds a live mirror adopts it in
        place — no restart, no replay — and the delivered batches stay
        byte-identical to an undisturbed run."""
        reference = MegaScaleData.deploy(make_job())
        system = MegaScaleData.deploy(make_job())
        try:
            source = "navit_data/src000"
            for peer in (reference, system):
                peer.run_step()
                peer.scale_source(source, 2)
            canonical = system.fleet._by_source[source][0].canonical
            mirror = system.fleet.standby_mirror(canonical.name)
            assert mirror is not None
            reference.scale_source(source, 1)  # keep fleets same-shaped logically
            reference.run_step()
            system.system.failures.fail(canonical.name)
            result = system.run_step()
            # Recovery chose promotion, not restart-and-replay.
            events = system.fault_manager.events()
            assert events and events[-1].kind == "mirror_promotion"
            promotions = [c for c in system.fleet.changes if c.kind == "promote"]
            assert promotions and promotions[-1].actor == mirror.name
            # The promoted mirror is now the planner-visible canonical.
            assert system.fleet._by_source[source][0].canonical.name == mirror.name
            assert any(h.name == mirror.name for h in system.loader_handles)
            assert all(h.name != canonical.name for h in system.loader_handles)
            # Behaviour-invisible: same batches as the undisturbed twin.
            expected = reference.history()[-1]
            assert result.plan.source_demands == expected.plan.source_demands
            assert delivery_signature(result) == delivery_signature(expected)
            for _ in range(3):
                a = reference.run_step()
                b = system.run_step()
                assert delivery_signature(a) == delivery_signature(b)
        finally:
            reference.shutdown()
            system.shutdown()

    def test_restore_after_mirror_promotion_continues_byte_identical(self):
        """Regression: a whole-run checkpoint saved after a promotion lists the
        promoted member under its mirror name (``…/0m2``), which a fresh
        deployment does not have; restore matches snapshots by the
        ``(source, shard_index)`` they carry instead."""
        job = make_job()
        reference = MegaScaleData.deploy(make_job())
        system = MegaScaleData.deploy(job)
        store = system.checkpoint_store
        try:
            source = "navit_data/src000"
            for peer in (reference, system):
                peer.run_step()
                peer.scale_source(source, 2)
            canonical = system.fleet._by_source[source][0].canonical
            reference.scale_source(source, 1)
            reference.run_step()
            system.system.failures.fail(canonical.name)
            system.run_step()
            assert system.fault_manager.events()[-1].kind == "mirror_promotion"
            system.save_checkpoint()
            system.shutdown()
            system = MegaScaleData.restore(job, store)
            assert delivery_signature(system.run_step()) == delivery_signature(
                reference.run_step()
            )
        finally:
            reference.shutdown()
            system.shutdown()

    def test_failed_mirror_still_restarts_without_promotion(self):
        """Promotion is canonical-only: a dead mirror is replaced inside its
        group via bounded replay, leaving the canonical untouched."""
        system = MegaScaleData.deploy(make_job())
        try:
            source = "navit_data/src000"
            system.run_step()
            system.scale_source(source, 2)
            canonical = system.fleet._by_source[source][0].canonical
            mirror = system.fleet.standby_mirror(canonical.name)
            system.system.failures.fail(mirror.name)
            system.run_step()
            assert system.fleet._by_source[source][0].canonical.name == canonical.name
            assert not any(c.kind == "promote" for c in system.fleet.changes)
        finally:
            system.shutdown()


# -- tentpole: whole-run save/restore with bounded replay ---------------------------


class TestWholeRunRestore:
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_continuation_byte_identical(self, backend):
        job = make_job(prefetch_depth=2, checkpoint_backend=backend)
        reference = MegaScaleData.deploy(make_job(prefetch_depth=2))
        system = MegaScaleData.deploy(job)
        store = system.checkpoint_store
        try:
            expected = run_signature(reference, 10)
            prefix = run_signature(system, 6)
            saved_at = system.save_checkpoint()
            assert saved_at == 6
            system.shutdown()
            system = MegaScaleData.restore(job, store)
            suffix = run_signature(system, 4)
            assert prefix + suffix == expected
        finally:
            reference.shutdown()
            system.shutdown()

    def test_restore_requires_a_saved_checkpoint(self):
        with pytest.raises(ConfigurationError):
            MegaScaleData.restore(make_job(), InMemoryCheckpointStore())

    def test_restore_rebuilds_fleet_topology(self):
        """Mirrors and worker sizing survive the round trip: the restored
        fleet has the saved shape without replaying any scaling directive."""
        job = make_job()
        system = MegaScaleData.deploy(job)
        store = system.checkpoint_store
        source = "navit_data/src000"
        try:
            system.run_step()
            system.scale_source(source, 2)
            group = system.fleet._by_source[source][0]
            system.fleet.resize_workers(source, group.workers_per_actor + 1, step=1)
            workers = group.workers_per_actor
            system.run_step()
            system.save_checkpoint()
            system.shutdown()
            system = MegaScaleData.restore(job, store)
            assert system.fleet.member_count(source) == 2
            restored_group = system.fleet._by_source[source][0]
            assert restored_group.workers_per_actor == workers
            assert restored_group.canonical.instance().num_workers == workers
            # And the restored members carry a consistent replay baseline, so
            # a post-restore crash keeps bounded replay.
            for group in system.fleet.groups:
                entry = system.fault_manager.shard_checkpoint(group.shard, system.step - 1)
                assert entry is not None and "replay" in entry
        finally:
            system.shutdown()

    def test_restore_preserves_user_mixture(self):
        mixture = MixtureSchedule.staged(
            [
                MixturePhase(0, {"navit_data/src000": 0.7, "navit_data/src001": 0.2,
                                 "navit_data/src002": 0.1}),
                MixturePhase(4, {"navit_data/src000": 0.1, "navit_data/src001": 0.3,
                                 "navit_data/src002": 0.6}),
            ]
        )
        job = make_job(mixture=mixture)
        reference = MegaScaleData.deploy(make_job(mixture=mixture))
        system = MegaScaleData.deploy(job)
        store = system.checkpoint_store
        try:
            expected = run_signature(reference, 8)
            prefix = run_signature(system, 3)
            system.save_checkpoint()
            system.shutdown()
            system = MegaScaleData.restore(job, store)
            planner = system.planner_handle.instance()
            assert planner.mixture.description == mixture.description
            assert planner.mixture.weights_at(5) == mixture.weights_at(5)
            suffix = run_signature(system, 5)
            assert prefix + suffix == expected
        finally:
            reference.shutdown()
            system.shutdown()

    def test_post_restore_crash_uses_bounded_replay(self):
        """After a restore, a loader crash recovers from the forced baseline
        checkpoint — it never replays the pre-restore plan history."""
        job = make_job(replay_window=3)
        system = MegaScaleData.deploy(job)
        store = system.checkpoint_store
        try:
            for _ in range(6):
                system.run_step()
            system.save_checkpoint()
            system.shutdown()
            system = MegaScaleData.restore(job, store)
            reference = MegaScaleData.deploy(make_job(replay_window=3))
            for _ in range(7):
                reference.run_step()
            system.run_step()
            victim = system.loader_handles[0]
            system.system.failures.fail(victim.name)
            a = system.run_step()
            b = reference.run_step()
            assert delivery_signature(a) == delivery_signature(b)
            event = system.fault_manager.events()[-1]
            assert event.kind in ("restart", "shadow_promotion")
            # Bounded: the replay charge covers a suffix, not the whole run.
            assert event.recovery_latency_s < (
                COORDINATOR_RESTART_LATENCY_S + 8 * REPLAY_LATENCY_PER_STEP_S
            )
            reference.shutdown()
        finally:
            system.shutdown()


# -- property: crash + restore is invisible, under any depth/elastic mix ------------


@given(
    seed=st.integers(min_value=0, max_value=15),
    depth=st.sampled_from([0, 2]),
    crash_step=st.integers(min_value=4, max_value=6),
    elastic_event=st.sampled_from(["none", "up", "up_down"]),
)
@settings(max_examples=6, deadline=None)
def test_crash_restore_continuation_byte_identical(
    seed, depth, crash_step, elastic_event
):
    """The durability contract: for any seed, prefetch depth and mid-run
    fleet churn, killing the whole deployment after
    ``save_checkpoint`` and restoring from the store continues the run with
    batches byte-identical to the uninterrupted twin."""

    def deploy(job):
        return MegaScaleData.deploy(job)

    def drive(system, start, stop):
        trace = []
        for step in range(start, stop):
            if elastic_event != "none" and step == 1:
                system.scale_source("navit_data/src000", 2)
            if elastic_event == "up_down" and step == 3:
                system.scale_source("navit_data/src000", 1)
            result = system.run_step()
            trace.append((result.step, result.plan.source_demands,
                          delivery_signature(result)))
        return trace

    job = make_job(prefetch_depth=depth, seed=seed)
    reference = deploy(make_job(prefetch_depth=depth, seed=seed))
    system = deploy(job)
    store = system.checkpoint_store
    try:
        expected = drive(reference, 0, 10)
        prefix = drive(system, 0, crash_step)
        system.save_checkpoint()
        system.shutdown()
        system = MegaScaleData.restore(job, store)
        suffix = drive(system, crash_step, 10)
        assert prefix + suffix == expected
    finally:
        reference.shutdown()
        system.shutdown()


# -- tentpole: save_checkpoint() is transparent to the live run ---------------------

HOT_SOURCE = "navit_data/src000"
TRANSPARENCY_STEPS = 9
CONTROL_OPS = ("save", "scale_up", "scale_down", "swap", "swap_flush", "fail")

#: Op pairs at one step boundary left out of the schedules, with the reason.
NOT_A_SAVE_MATTER = (
    # An unflushed swap takes effect at the first unplanned step, which in a
    # freshly restored run (empty window) is the saved step itself: issued
    # right after the save it is not the same request in both runs.
    ["save", "swap"],
    # Cloning a mirror from a canonical that was failed a moment ago, before
    # any RPC noticed, raises ActorDead — with or without saves.
    ["fail", "scale_up"],
)


def apply_control_op(system, op: str, index: int) -> None:
    """One control op of a transparency schedule, before step ``index``."""
    if op == "scale_up":
        system.scale_source(HOT_SOURCE, 2)
    elif op == "scale_down":
        system.scale_source(HOT_SOURCE, 1)
    elif op in ("swap", "swap_flush"):
        names = system.catalog.names()
        weights = {name: 1.0 + (index + offset) % 3 for offset, name in enumerate(names)}
        system.set_mixture(MixtureSchedule.static(weights), flush_pending=op == "swap_flush")
    elif op == "fail":
        # The hot source's canonical: promoted from its mirror when scaled
        # up (hot standby), restarted with bounded replay otherwise.
        canonical = system.fleet._by_source[HOT_SOURCE][0].canonical
        system.system.failures.fail(canonical.name)


def run_schedule(system, schedule, start: tuple[int, int] = (0, 0), saves: bool = True):
    """Drive ``schedule`` from ``start`` — ``(step boundary, ops of it already
    applied)``; returns the per-step trace and, per save, ``(saved step, where
    the schedule stood, copy of the store one delivered step later)``: what a
    run killed right there would leave behind."""
    trace, snapshots = [], []
    for index in range(start[0], len(schedule)):
        saved = []
        for position, op in enumerate(schedule[index]):
            if (index, position) < start:
                continue
            if op != "save":
                apply_control_op(system, op, index)
            elif saves:
                before = system.pipeline.inflight()
                assert system.save_checkpoint() == system.step
                assert system.pipeline.inflight() == before
                saved = [(system.step, (index, position + 1))]
        result = system.run_step()
        trace.append((result.step, result.plan.source_demands, delivery_signature(result)))
        snapshots += [(*save, copy.deepcopy(system.checkpoint_store)) for save in saved]
    return trace, snapshots


def run_totals(system) -> tuple:
    return (
        system.virtual_time_s(),
        system.overlap.stall_total_s(),
        len(system.fleet.all_handles()),
        system.memory_report()["total"],
    )


@given(
    seed=st.integers(min_value=0, max_value=7),
    depth=st.sampled_from([0, 1, 2]),
    schedule=st.lists(
        st.lists(st.sampled_from(CONTROL_OPS), max_size=2).filter(
            lambda ops: ops not in NOT_A_SAVE_MATTER
        ),
        min_size=TRANSPARENCY_STEPS, max_size=TRANSPARENCY_STEPS,
    ).filter(lambda ops: sum(step.count("fail") for step in ops) <= 1),
)
@settings(max_examples=25, deadline=None)
def test_save_checkpoint_is_transparent_and_every_entry_restores(seed, depth, schedule):
    """A run with ``save_checkpoint()`` calls anywhere — beside fleet churn,
    flushed and unflushed mixture swaps and a loader failure (hot-standby
    promotion included) — equals the run without them on delivered bytes,
    virtual time, stall, fleet size, memory and the in-flight window; and
    every entry it wrote restores a killed run to the uninterrupted run's
    continuation, byte for byte."""
    job = make_job(prefetch_depth=depth, seed=seed, replay_window=4)
    reference = MegaScaleData.deploy(job)
    system = MegaScaleData.deploy(job)
    try:
        expected, _ = run_schedule(reference, schedule, saves=False)
        trace, snapshots = run_schedule(system, schedule)
        assert trace == expected
        assert run_totals(system) == run_totals(reference)
    finally:
        reference.shutdown()
        system.shutdown()
    for saved_at, resume, store in snapshots:
        restored = MegaScaleData.restore(job, store)
        try:
            assert restored.step == saved_at
            suffix, _ = run_schedule(restored, schedule, start=resume, saves=False)
            assert suffix == expected[saved_at:]
        finally:
            restored.shutdown()


class TestSaveBesidePrefetch:
    def test_save_does_not_flush_and_costs_no_virtual_time(self):
        system = MegaScaleData.deploy(make_job(prefetch_depth=2))
        try:
            for _ in range(4):
                system.run_step()
            inflight = system.pipeline.inflight()
            assert [step for step, _ in inflight] == [4, 5, 6]
            planner = system.planner_handle.instance()
            plans_before = planner.stats.plans_generated
            clock_before = system.system.clock.now_s
            assert system.save_checkpoint() == 4
            assert system.pipeline.inflight() == inflight
            assert system.system.clock.now_s == clock_before
            payload = system.checkpoint_store.load(RUN_NAMESPACE, 4)
            # The entry is the control plane as of step 4, not of the frontier.
            assert payload["planner"]["step"] == 4
            history = payload["planner"]["plan_history"]
            assert [plan.step for plan in history] == [0, 1, 2, 3]
            assert all(type(plan) is PlanRecord for plan in history)
            assert all(
                entry is None or entry["step"] <= 3 for entry in payload["loaders"].values()
            )
            system.run_step()
            # One new plan for the one new window slot: nothing was re-planned.
            assert planner.stats.plans_generated == plans_before + 1
        finally:
            system.shutdown()

    def test_killed_run_restores_like_a_cleanly_stopped_one(self):
        """Regression: only a flush (``shutdown()``) used to purge the
        never-delivered plans from the store."""
        job = make_job(prefetch_depth=2, replay_window=4)
        reference = MegaScaleData.deploy(job)
        system = MegaScaleData.deploy(job)
        store = system.checkpoint_store
        try:
            expected = run_signature(reference, 10)
            prefix = run_signature(system, 5)
            saved_at = system.save_checkpoint()
            run_signature(system, 2)
            assert max(store.steps(PLAN_NAMESPACE)) >= saved_at + 2
            # Killed: no shutdown(), nothing flushed.
            restored = MegaScaleData.restore(job, store)
            assert max(store.steps(PLAN_NAMESPACE)) < saved_at
            assert stored_namespaces(store) == sorted(
                [MANIFEST_NAMESPACE, PLAN_NAMESPACE, RUN_NAMESPACE]
            )
            assert prefix + run_signature(restored, 5) == expected
            restored.shutdown()
        finally:
            reference.shutdown()
            system.shutdown()

    def test_early_save_replays_from_the_step_zero_baseline(self):
        """Before the first ``replay_window`` boundary past step 0 the only
        consistent checkpoints are step 0's: restore replays plan 1 over them."""
        job = make_job(prefetch_depth=2, replay_window=50)
        reference = MegaScaleData.deploy(job)
        system = MegaScaleData.deploy(job)
        store = system.checkpoint_store
        try:
            expected = run_signature(reference, 6)
            prefix = run_signature(system, 2)
            assert system.save_checkpoint() == 2
            loaders = store.load(RUN_NAMESPACE, 2)["loaders"].values()
            assert {entry["step"] for entry in loaders} == {0}
            restored = MegaScaleData.restore(job, store)
            assert prefix + run_signature(restored, 4) == expected
            restored.shutdown()
        finally:
            reference.shutdown()
            system.shutdown()

    def test_pristine_entry_replays_from_genesis(self):
        """No consistent checkpoint at or below the saved position (here the
        deep window's sync points pushed every delivered one out of the
        fault manager's short history): the entry says "pristine" and restore
        replays the whole plan history, fetched back from the store."""
        job = make_job(prefetch_depth=4, replay_window=1)
        reference = MegaScaleData.deploy(job)
        system = MegaScaleData.deploy(job)
        store = system.checkpoint_store
        try:
            expected = run_signature(reference, 8)
            prefix = run_signature(system, 5)
            assert system.save_checkpoint() == 5
            payload = store.load(RUN_NAMESPACE, 5)
            assert all(entry is None for entry in payload["loaders"].values())
            assert len(payload["planner"]["plan_history"]) < 5
            restored = MegaScaleData.restore(job, store)
            assert prefix + run_signature(restored, 3) == expected
            restored.shutdown()
        finally:
            reference.shutdown()
            system.shutdown()

    def test_save_around_a_store_outage(self):
        """Inside the outage window the save raises and writes nothing; right
        after it, the delivered plans are durable only in the Planner's
        persist backlog — they ride in the entry and the restore is exact."""
        job = make_job(prefetch_depth=2, replay_window=4)
        reference = MegaScaleData.deploy(job)
        engine = ChaosEngine(FaultPlan([FaultEvent("store_outage", 0.0, duration_s=1e5)]))
        backend = InMemoryCheckpointStore()
        system = MegaScaleData.deploy(job, checkpoint_store=engine.wrap_store(backend))
        engine.attach(system.system)
        try:
            expected = run_signature(reference, 9)
            prefix = run_signature(system, 5)
            planner = system.planner_handle.instance()
            assert [plan.step for plan in planner._persist_backlog][:5] == [0, 1, 2, 3, 4]
            with pytest.raises(StorageError):
                system.save_checkpoint()
            assert backend.steps(RUN_NAMESPACE) == []
            system.fault_manager.sleep(1e5)  # the outage ends
            assert system.save_checkpoint() == 5
            assert backend.steps(PLAN_NAMESPACE) == []
            restored = MegaScaleData.restore(job, backend)
            assert prefix + run_signature(restored, 4) == expected
            restored.shutdown()
        finally:
            reference.shutdown()
            system.shutdown()

    def test_unrebuildable_prefix_raises(self):
        """A plan of the needed suffix gone from both the store and the
        entry's Planner state: restore refuses instead of guessing."""
        job = make_job(prefetch_depth=2, replay_window=50)
        system = MegaScaleData.deploy(job)
        store = system.checkpoint_store
        try:
            run_signature(system, 3)
            system.save_checkpoint()
            payload = store.load(RUN_NAMESPACE, 3)
            payload["planner"]["plan_history"] = [
                plan for plan in payload["planner"]["plan_history"] if plan.step != 1
            ]
            store._data[PLAN_NAMESPACE].pop(1)
            with pytest.raises(ConfigurationError, match=r"plans of steps 1\.\.2"):
                MegaScaleData.restore(job, store)
        finally:
            system.shutdown()


# -- a restored loader resyncs the gather -------------------------------------------


class TestGatherResync:
    def test_restored_loader_forces_gather_resync(self, filesystem, small_catalog):
        """The first gather after a restore is a resync of the restored buffer;
        the gathers between count the rows the buffer gained and lost."""
        loader = SourceLoader(small_catalog.sources()[0], filesystem, buffer_size=8)
        loader.gcs = GlobalControlStore()  # where the hand-off publishes
        loader.on_start()
        first = loader.buffer_delta()
        assert first["resync"] is True
        ids = buffered_ids(loader)[:2]
        loader.gcs.take(loader.prepare(ids)["key"])
        delta = loader.buffer_delta()
        assert delta["resync"] is False
        assert delta["changes"] == 4  # two rows consumed, two refilled
        snapshot = loader.replay_checkpoint()
        loader.restore_replay_checkpoint(snapshot)
        resync = loader.buffer_delta()
        assert resync["resync"] is True
        ids = buffered_ids(loader)
        assert resync["sample_ids"].tolist() == ids
        assert delta["sample_ids"].tolist() == ids
        quiet = loader.buffer_delta()
        assert quiet["sample_ids"].tolist() == ids
        assert (quiet["changes"], quiet["resync"]) == (0, False)
        assert quiet.keys() == {
            "sample_ids", "text_tokens", "image_tokens", "changes", "resync"
        }


# -- one differential-checkpoint interval -------------------------------------------


@pytest.mark.parametrize("depth", [0, 2])
def test_consistent_checkpoints_land_only_at_interval_multiples(depth):
    """``replay_window`` is the loaders' checkpoint interval and nothing else
    gates it: with a window of 60, a 62-step run checkpoints at 0 and 60."""
    system = MegaScaleData.deploy(make_job(depth, replay_window=60))
    try:
        steps: dict[tuple, list[int]] = {}
        for _ in range(62):
            system.run_step()
            for group in system.fleet.groups:
                entry = system.fault_manager.shard_checkpoint(group.shard, 62 + depth)
                taken = steps.setdefault(group.shard, [])
                if entry is not None and entry["step"] not in taken:
                    assert "replay" in entry
                    taken.append(entry["step"])
        assert steps and all(taken == [0, 60] for taken in steps.values())
    finally:
        system.shutdown()


# -- whole-run checkpoints land in the run namespace --------------------------------


def test_save_checkpoint_writes_run_namespace():
    system = MegaScaleData.deploy(make_job())
    try:
        for _ in range(3):
            system.run_step()
        saved_at = system.save_checkpoint()
        found = system.checkpoint_store.load_latest(RUN_NAMESPACE)
        assert found is not None
        step, payload = found
        assert step == saved_at == 3
        # One entry per loader shard, keyed (source, shard index, shard count).
        assert set(payload["loaders"]) == {
            (h.instance().source.name, h.instance().shard_index, h.instance().shard_count)
            for h in system.loader_handles
        }
        assert payload["planner"]["step"] >= 2
        assert {entry["source"] for entry in payload["topology"]} == {
            h.instance().source.name for h in system.loader_handles
        }
    finally:
        system.shutdown()


# -- a loader checkpoint lives in one place ----------------------------------------


def spy_on_store_writes(monkeypatch, store) -> list[tuple[str, str]]:
    """Record ``(op, namespace)`` for every write ``store`` takes from here on."""
    writes: list[tuple[str, str]] = []
    cls = type(store)
    for op in ("save", "delete_from"):
        original = getattr(cls, op)

        def spied(self, namespace, *args, _original=original, _op=op):
            writes.append((_op, namespace))
            return _original(self, namespace, *args)

        monkeypatch.setattr(cls, op, spied)
    save_many = cls.save_many

    def spied_many(self, entries):
        writes.extend(("save_many", namespace) for namespace, _, _ in entries)
        return save_many(self, entries)

    monkeypatch.setattr(cls, "save_many", spied_many)
    return writes


@pytest.mark.parametrize("backend", ["virtual", "wallclock"])
@pytest.mark.parametrize("checkpoint_backend", ["memory", "sqlite"])
def test_loader_checkpoints_never_reach_the_store(monkeypatch, checkpoint_backend, backend):
    """Regression: every loader checkpoint used to be mirrored into the store
    as ``loader/<name>`` rows that nothing read, and every flush and restore
    purged them with one ``delete_from`` per namespace ever written.  Through
    scaling, a failover, a flushed mixture swap, a save, a shutdown and a
    restore, only plans, manifests and run entries reach the store."""
    job = make_job(
        prefetch_depth=2, replay_window=2, checkpoint_backend=checkpoint_backend,
        backend=backend, wallclock_time_scale=2e-4,
    )
    system = MegaScaleData.deploy(job)
    store = system.checkpoint_store
    restored = None
    try:
        run_signature(system, 2)
        source = system.catalog.sources()[0].name
        assert system.scale_source(source, 3) == 3
        run_signature(system, 2)
        assert system.scale_source(source, 1) == 1
        run_signature(system, 2)
        victim = next(
            handle for handle in system.loader_handles
            if len(system.fleet.group_for(handle.name).members) == 1
        )
        system.system.failures.fail(victim.name)
        run_signature(system, 2)
        assert [event.component for event in system.fault_manager.events()] == [victim.name]
        writes = spy_on_store_writes(monkeypatch, store)
        names = system.catalog.names()
        system.set_mixture(
            MixtureSchedule.static({name: 3.0 if name == source else 1.0 for name in names}),
            flush_pending=True,
        )
        assert [write for write in writes if write[1] != PLAN_NAMESPACE] == []
        run_signature(system, 2)
        system.save_checkpoint()
        run_signature(system, 2)
        system.shutdown()
        writes.clear()
        restored = MegaScaleData.restore(job, store)
        assert [write for write in writes if write[1] != PLAN_NAMESPACE] == []
        restored.run_step()
        assert stored_namespaces(store) == sorted(
            [MANIFEST_NAMESPACE, PLAN_NAMESPACE, RUN_NAMESPACE]
        )
    finally:
        monkeypatch.undo()
        system.shutdown()
        if restored is not None:
            restored.shutdown()
