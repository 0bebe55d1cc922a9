"""A run retains state bounded by its windows, not by its length.

The timeline keeps a window of events, plan records are compacted at the
replay floor (the oldest step any consumer may still replay from), the
store keeps the newest ``run`` entry only, and the ids that stay per step
or per snapshot — delivery manifests, plan records, loader snapshots — are
8-byte arrays.
These tests bound what a long run retains, check that compaction changes
no batch, and that the durable audit trail still works on SQLite.

The pins were recorded from the code that kept every plan record, as Python
ints, with no compaction.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from repro import MegaScaleData, TrainingJobSpec
from repro.chaos import ChaosEngine, FaultEvent, FaultPlan
from repro.core.checkpoint import InMemoryCheckpointStore
from repro.core.durability import MANIFEST_NAMESPACE, RUN_NAMESPACE
from repro.core.fault_tolerance import CHECKPOINT_HISTORY, FaultToleranceManager
from repro.core.planner import PLAN_NAMESPACE
from repro.data.mixture import MixturePhase, MixtureSchedule
from repro.errors import ConfigurationError, PlanError
from repro.metrics.timeline import TIMELINE_WINDOW
from conftest import retained_bytes

#: Retained bytes a run may add per step from step 400 to step 800 with a
#: checkpoint every 50 steps: what still grows per step is the delivery
#: manifests, the overlap ledger, the utilization samples and the trainer's
#: stall log, 1.4-1.5 KB a step (Python 3.11).  Tracing starts at step 300,
#: so windows longer than 100 steps (timeline, plan records) still fill with
#: traced records past step 400, which reads 1.6-1.7 KB a step.  Keeping
#: every plan record, timeline event and loader snapshot grew 3.8-7.4 KB a step.
RETAINED_BYTES_PER_STEP = 2 * 1024

#: The step tracing starts at: late enough to keep the test short, early
#: enough that the step-result history (32 steps, the largest per-step
#: record) holds only traced results by step 400.
TRACED_FROM = 300

#: sha256 over every delivered manifest of 12 steps of ``vlm_example``
#: (depth 2, seed 3): ``(step, sorted (constructor, ids as a list), ranks)``.
MANIFEST_PIN = "1dcb4413dc4cc531f81b25c2069d6b7c4c32de5215b765b627a297e99900d61c"

#: sha256 over the delivered slices of :func:`compacted_scenario`, the same at
#: depths 0 and 2.
SCENARIO_PIN = "e4406619911de6fe0803a4863c5e86334ff6cabf7b8f4a6272f9a8bbc0afe49b"

#: sha256 over the delivered slices of
#: :func:`test_a_mirror_spawned_in_a_flushed_window_resyncs_from_its_shard`,
#: recorded when that mirror was rebuilt by a replay from genesis.
WINDOW_MIRROR_PIN = "d90f109f9004fac031c4415d4355f8e408efb176f72fd3dae78470b144dab801"


def delivery_digest(results) -> str:
    digest = hashlib.sha256()
    for result in results:
        for rank in sorted(result.deliveries):
            for piece in result.deliveries[rank].slices:
                digest.update(b"%d,%d,%d,%d,%d;" % (
                    result.step, rank, piece.microbatch_index,
                    piece.token_count, piece.payload_bytes,
                ))
    return digest.hexdigest()


@pytest.mark.parametrize("depth", [0, 2])
@pytest.mark.parametrize("example", ["text_example", "vlm_example"])
def test_retained_bytes_stop_growing_with_the_run(example, depth):
    system = MegaScaleData.deploy(replace(getattr(TrainingJobSpec, example)(), prefetch_depth=depth))

    def step(index: int) -> None:
        system.run_step()
        if (index + 1) % 50 == 0:
            system.save_checkpoint()

    try:
        retained = retained_bytes(step, TRACED_FROM, (400, 800))
        assert len(system.system.timeline) <= TIMELINE_WINDOW
        assert system.checkpoint_store.steps(RUN_NAMESPACE) == [800]
    finally:
        system.shutdown()
    assert retained[1] - retained[0] <= 400 * RETAINED_BYTES_PER_STEP


def test_manifests_hold_the_delivered_ids():
    system = MegaScaleData.deploy(replace(TrainingJobSpec.vlm_example(), prefetch_depth=2, seed=3))
    try:
        for _ in range(12):
            system.run_step()
        digest = hashlib.sha256()
        for step in range(12):
            manifest = system.delivery_manifest(step)
            buckets = sorted((name, list(ids)) for name, ids in manifest["buckets"].items())
            assert all(type(i) is int for _, ids in buckets for i in ids)
            digest.update(repr((manifest["step"], buckets, manifest["ranks"])).encode())
    finally:
        system.shutdown()
    assert digest.hexdigest() == MANIFEST_PIN


def test_sqlite_audit_flags_a_duplicate_and_a_gap_across_save_and_restore():
    job = replace(TrainingJobSpec.text_example(), prefetch_depth=2, checkpoint_backend="sqlite")
    system = MegaScaleData.deploy(job)
    store = system.checkpoint_store
    try:
        for _ in range(6):
            system.run_step()
        # A sample delivered twice within step 4, and step 2's manifest lost.
        manifests = {step: store.load(MANIFEST_NAMESPACE, step) for step in range(2, 6)}
        buckets = manifests[4]["buckets"]
        buckets["constructor/ghost"] = next(iter(buckets.values()))[:1]
        store.delete_from(MANIFEST_NAMESPACE, 2)
        for step in (3, 4, 5):
            store.save(MANIFEST_NAMESPACE, step, manifests[step])
        system.save_checkpoint()
        before = system.delivery_audit()
        system.shutdown()
        restored = MegaScaleData.restore(job, store)
        try:
            for _ in range(3):
                restored.run_step()
            after = restored.delivery_audit()
        finally:
            restored.shutdown()
    finally:
        system.shutdown()
    for audit in (before, after):
        assert audit["gaps"] == [2]
        assert audit["duplicate_steps"] == [4]
        assert audit["exactly_once"] is False
    assert after["last_step"] == 8


def assert_replay_stops_at_the_floor(system) -> int:
    """The replay floor has advanced: the suffix from it is served, one from
    below it raises; returns the floor."""
    planner = system.planner_handle.instance()
    floor = planner.replay_floor
    assert floor > 0
    assert [plan.step for plan in planner.plans_since(floor - 1)][0] == floor
    with pytest.raises(PlanError, match="compacted"):
        planner.plans_since(floor - 2)
    with pytest.raises(PlanError, match="compacted"):
        planner.plan_history()
    return floor


def compacted_scenario(depth: int):
    """Run 30 steps with a checkpoint interval of 5, so the replay floor has
    advanced, then flush, fail a mirror-less canonical loader, scale a
    source up and down, save, and restore; returns the results of every
    delivered step and the replay floor before and after the restore."""
    job = replace(TrainingJobSpec.text_example(), prefetch_depth=depth, replay_window=5, seed=0)
    system = MegaScaleData.deploy(job)
    results = []

    def steps(count: int) -> None:
        results.extend(system.run_step() for _ in range(count))

    sources = [source.name for source in system.catalog.sources()]
    steps(30)
    floors = [assert_replay_stops_at_the_floor(system)]
    weights = {name: 1.0 for name in sources}
    weights[sources[0]] = 3.0
    system.set_mixture(MixtureSchedule.static(weights), flush_pending=True)
    steps(3)
    victim = next(
        handle.name
        for handle in system.loader_handles
        if len(system.fleet.group_for(handle.name).members) == 1
    )
    system.system.failures.fail(victim)
    steps(3)
    system.scale_source(sources[1], 3)
    steps(3)
    system.scale_source(sources[1], 1)
    steps(3)
    system.save_checkpoint()
    steps(2)
    store = system.checkpoint_store
    system.shutdown()
    restored = MegaScaleData.restore(job, store)
    try:
        results.extend(restored.run_step() for _ in range(4))
        floors.append(assert_replay_stops_at_the_floor(restored))
    finally:
        restored.shutdown()
    return results, floors


@pytest.mark.parametrize("depth", [0, 2])
def test_compaction_changes_no_batch(depth):
    results, floors = compacted_scenario(depth)
    assert [result.step for result in results][-6:] == [42, 43, 42, 43, 44, 45]
    assert delivery_digest(results) == SCENARIO_PIN
    assert floors[0] < floors[1]


def test_a_mirror_spawned_in_a_flushed_window_resyncs_from_its_shard(monkeypatch):
    """A mirror spawned from a plan inside the prefetch window loses its
    birth baseline to the flush; it starts from its shard's newest
    checkpoint, and the batches are the ones a replay from genesis gave."""
    found = []
    shard_checkpoint = FaultToleranceManager.shard_checkpoint

    def spy(self, shard, max_step):
        found.append(shard_checkpoint(self, shard, max_step))
        return found[-1]

    monkeypatch.setattr(FaultToleranceManager, "shard_checkpoint", spy)
    job = replace(TrainingJobSpec.text_example(), prefetch_depth=2, replay_window=5, seed=0)
    system = MegaScaleData.deploy(job)
    try:
        results = [system.run_step() for _ in range(30)]
        sources = [source.name for source in system.catalog.sources()]
        system.scale_source(sources[1], 2)
        weights = {name: 1.0 for name in sources}
        weights[sources[2]] = 2.0
        system.set_mixture(MixtureSchedule.static(weights), flush_pending=True)
        results += [system.run_step() for _ in range(10)]
    finally:
        system.shutdown()
    assert found and all(entry is not None for entry in found)
    assert delivery_digest(results) == WINDOW_MIRROR_PIN


def test_a_store_outage_skips_compaction_until_the_next_advance():
    engine = ChaosEngine(FaultPlan([FaultEvent("store_outage", 1e6, duration_s=10.0)]))
    backend = InMemoryCheckpointStore()
    job = replace(TrainingJobSpec.text_example(), replay_window=50)
    system = MegaScaleData.deploy(job, checkpoint_store=engine.wrap_store(backend))
    engine.attach(system.system)
    try:
        for _ in range(12):
            system.run_step()
        planner = system.planner_handle.instance()
        system.fault_manager.sleep(1e6 - system.system.clock.now_s)
        assert engine.store_outage_active()
        planner.compact_below(5)
        assert planner.replay_floor == 5
        assert backend.steps(PLAN_NAMESPACE) == list(range(12))
        system.fault_manager.sleep(20.0)
        planner.compact_below(8)
        assert backend.steps(PLAN_NAMESPACE) == list(range(8, 12))
    finally:
        system.shutdown()


def test_plan_rows_stay_within_the_checkpoint_history():
    """A ``curriculum_churn``-shaped job (SQLite store, autoscaler, a staged
    mixture, a 20-step cycle of flush, scale-up, loader failure, scale-down
    and save) keeps at most ``CHECKPOINT_HISTORY x interval + depth + 1``
    plan rows over 300 steps, and loader checkpoints for its live members
    only."""
    names = [f"navit_data/src{index:03d}" for index in range(8)]
    job = TrainingJobSpec(
        dp=4, encoder=None, strategy="backbone_balance", samples_per_dp_step=32,
        num_sources=len(names), samples_per_source=512, prefetch_depth=2,
        checkpoint_backend="sqlite", replay_window=10, enable_autoscaler=True,
        mixture=MixtureSchedule.staged([
            MixturePhase(0, {name: 1.0 for name in names}),
            MixturePhase(3, {name: 3.0 if index < 4 else 1.0 for index, name in enumerate(names)}),
        ]),
        seed=0,
    )
    system = MegaScaleData.deploy(job)
    store = system.checkpoint_store
    names = [source.name for source in system.catalog.sources()]
    bound = CHECKPOINT_HISTORY * job.replay_window + job.prefetch_depth + 1
    rows = []
    try:
        for index in range(300):
            cycle, offset = divmod(index, 20)
            hot = names[cycle % len(names)]
            if offset == 5:
                weights = {name: 0.5 / (len(names) - 1) for name in names}
                weights[hot] = 0.5
                system.set_mixture(MixtureSchedule.static(weights), flush_pending=True)
            elif offset == 8:
                system.scale_source(hot, 3)
            elif offset == 12:
                system.system.failures.fail(next(
                    handle.name
                    for handle in system.loader_handles
                    if len(system.fleet.group_for(handle.name).members) == 1
                ))
            elif offset == 16:
                system.scale_source(hot, 1)
            elif offset == 19:
                system.save_checkpoint()
            system.run_step()
            rows.append(len(store.steps(PLAN_NAMESPACE)))
        assert system.delivery_audit()["exactly_once"]
        # Checkpoints are kept for the fleet's members only: a retired
        # mirror's go with it.
        members = {handle.name for handle in system.fleet.all_handles()}
        assert set(system.fault_manager._loader_checkpoints) <= members | set(system.fleet._draining)
    finally:
        system.shutdown()
    assert max(rows) <= bound, (max(rows), bound)
    assert rows[-1] < 300


def test_a_promoted_shadow_saved_before_its_own_checkpoint_restores():
    """A canonical loader fails after the replay floor has advanced and its
    shadow is promoted under its own name; a save before the shadow's next
    interval checkpoint embeds the shard's newest checkpoint, so the run
    restores and delivers the batches of a run with no failure."""
    job = replace(
        TrainingJobSpec.text_example(), prefetch_depth=2, replay_window=5,
        enable_shadow_loaders=True, seed=0,
    )
    reference = MegaScaleData.deploy(job)
    system = MegaScaleData.deploy(job)
    try:
        expected = [reference.run_step() for _ in range(40)]
        results = [system.run_step() for _ in range(31)]
        floor = assert_replay_stops_at_the_floor(system)
        victim = system.loader_handles[0].name
        system.system.failures.fail(victim)
        results.append(system.run_step())
        promoted = system.loader_handles[0].name
        assert promoted != victim
        assert system.fault_manager.last_loader_checkpoint(promoted, max_step=31) is None
        saved_at = system.save_checkpoint()
        assert saved_at % job.replay_window != 0
        store = system.checkpoint_store
        system.shutdown()
        restored = MegaScaleData.restore(job, store)
        try:
            assert restored.step == saved_at == 32
            assert restored.planner_handle.instance().replay_floor >= floor
            results += [restored.run_step() for _ in range(8)]
        finally:
            restored.shutdown()
    finally:
        reference.shutdown()
        system.shutdown()
    assert delivery_digest(results) == delivery_digest(expected)


def test_a_save_that_could_not_be_restored_raises_and_keeps_the_older_entry():
    """With no checkpoint left for a shard once the floor has advanced, the
    entry would need a replay from genesis: the save raises before it
    writes, and the older ``run`` entry stays restorable."""
    job = replace(TrainingJobSpec.text_example(), prefetch_depth=2, replay_window=5, seed=0)
    system = MegaScaleData.deploy(job)
    try:
        for _ in range(31):
            system.run_step()
        assert_replay_stops_at_the_floor(system)
        saved_at = system.save_checkpoint()
        system.run_step()
        system.fault_manager._loader_checkpoints.clear()
        with pytest.raises(ConfigurationError, match="replay floor"):
            system.save_checkpoint()
        assert system.checkpoint_store.steps(RUN_NAMESPACE) == [saved_at]
    finally:
        system.shutdown()
