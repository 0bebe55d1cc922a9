"""Shutdown with a full prefetch window.

``shutdown()`` abandons the in-flight window instead of flushing it: no
loader is rewound (no checkpoint restore, no pristine reset, no demand
replay) and no plan is read back out of the store, yet the store is cut to
the delivered prefix exactly as a flush cuts it, no ``prepared/`` hand-off
reference survives, every reservation returns to the scheduler and a run
saved before the shutdown restores byte-identically.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.checkpoint import SqliteCheckpointStore
from repro.core.data_constructor import DataConstructor
from repro.core.framework import MegaScaleData, TrainingJobSpec
from repro.core.planner import PLAN_NAMESPACE
from repro.core.source_loader import SourceLoader
from repro.core.step_pipeline import StepPipeline
from repro.errors import ActorError
from test_core_checkpoint import stored_namespaces

#: Real seconds per virtual second for the wallclock legs.
TIME_SCALE = 2e-4

REWIND_CALLS = ("replay_demands", "restore_replay_checkpoint", "reset_for_replay")


def make_job(prefetch_depth: int, backend: str = "virtual", seed: int = 5) -> TrainingJobSpec:
    return TrainingJobSpec(
        pp=1, dp=2, cp=1, tp=1, encoder=None, strategy="backbone_balance",
        samples_per_dp_step=4, num_microbatches=2, num_sources=3,
        samples_per_source=96, seed=seed, prefetch_depth=prefetch_depth,
        checkpoint_backend="sqlite", backend=backend, wallclock_time_scale=TIME_SCALE,
    )


def delivery_signature(result):
    return {
        rank: [
            (piece.rank, piece.microbatch_index, piece.token_count, piece.payload_bytes)
            for piece in delivery.slices
        ]
        for rank, delivery in sorted(result.deliveries.items())
    }


def run_steps(system, steps: int) -> list:
    return [delivery_signature(system.run_step()) for _ in range(steps)]


def spy_on_shutdown(monkeypatch) -> Counter:
    """Count loader rewind calls and Planner plan loads from here on."""
    calls: Counter = Counter()
    for name in REWIND_CALLS:
        original = getattr(SourceLoader, name)

        def counted(self, *args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(SourceLoader, name, counted)
    for name in ("load", "load_latest"):
        original = getattr(SqliteCheckpointStore, name)

        def counted_load(self, namespace, *args, _original=original, **kwargs):
            if namespace.endswith(PLAN_NAMESPACE):
                calls["plan_loads"] += 1
            return _original(self, namespace, *args, **kwargs)

        monkeypatch.setattr(SqliteCheckpointStore, name, counted_load)
    return calls


def deploy_scaled(job: TrainingJobSpec) -> MegaScaleData:
    system = MegaScaleData.deploy(job)
    system.run_step()
    system.scale_source(system.catalog.sources()[0].name, 2)
    return system


def assert_clean_stop(system, store, delivered: int, floor: int = -1) -> None:
    # The delivered prefix, from the replay floor on (compaction drops older).
    assert store.steps(PLAN_NAMESPACE) == list(range(max(0, floor), delivered))
    assert not [name for name in stored_namespaces(store) if name.startswith("loader/")]
    assert not [key for key in system.system.gcs.keys() if "prepared/" in key]
    assert system.system.list_actor_names() == []
    assert all(node.reserved_cpu == 0.0 for node in system.system.scheduler.nodes)
    assert system.memory_report()["total"] == 0


@pytest.mark.parametrize("backend", ["virtual", "wallclock"])
@pytest.mark.parametrize("prefetch_depth", [0, 1, 2])
def test_shutdown_abandons_the_window_without_rewinding(monkeypatch, prefetch_depth, backend):
    job = make_job(prefetch_depth, backend)
    system = deploy_scaled(job)
    store = system.checkpoint_store
    try:
        run_steps(system, 5)
        assert bool(system.pipeline.inflight()) == bool(prefetch_depth)
        delivered = system.step
        calls = spy_on_shutdown(monkeypatch)
        system.shutdown()
        assert calls == Counter()
        assert not system.pipeline.inflight()
        assert_clean_stop(system, store, delivered)
    finally:
        system.shutdown()


# The replay floor at ``steps``: the oldest of the CHECKPOINT_HISTORY = 4
# loader checkpoints kept (interval 50), once it is below the consume
# position.  At 200 steps the window has prepared step 200, so the four kept
# are of steps 50-200; at 20 the floor has never advanced (-1, genesis).
@pytest.mark.parametrize("steps, floor", [(20, -1), (200, 50)])
def test_shutdown_cost_is_flat_in_run_length(monkeypatch, steps, floor):
    system = deploy_scaled(make_job(prefetch_depth=2))
    store = system.checkpoint_store
    try:
        run_steps(system, steps - 1)
        assert system.planner_handle.instance().replay_floor == floor
        calls = spy_on_shutdown(monkeypatch)
        system.shutdown()
        assert calls == Counter()
        assert_clean_stop(system, store, steps, floor)
    finally:
        system.shutdown()


def test_restore_after_shutdown_continues_byte_identical():
    """The save taken before the shutdown restores the uninterrupted run,
    although the shutdown left the fleet un-rewound and the window past it."""
    job = make_job(prefetch_depth=2)
    reference = deploy_scaled(job)
    system = deploy_scaled(job)
    store = system.checkpoint_store
    try:
        expected = run_steps(reference, 10)
        prefix = run_steps(system, 5)
        saved_at = system.save_checkpoint()
        run_steps(system, 3)
        system.shutdown()
        system = MegaScaleData.restore(job, store)
        assert system.step == saved_at
        assert prefix + run_steps(system, 5) == expected
    finally:
        reference.shutdown()
        system.shutdown()


def freeze_before_preparing(monkeypatch, step: int) -> None:
    """Stop the pump the first time it would look at ``step``'s polls, so they
    complete (on a wallclock lane, or by an explicit tick) unobserved."""
    observe = StepPipeline._advance_preparing

    def frozen(self, item):
        return False if item.step == step else observe(self, item)

    monkeypatch.setattr(StepPipeline, "_advance_preparing", frozen)


@pytest.mark.parametrize("backend", ["virtual", "wallclock"])
@pytest.mark.parametrize("prefetch_depth", [1, 2])
@pytest.mark.parametrize("abandon", ["flush", "cancel", "shutdown"])
def test_no_hand_off_leaks_from_final_polls_nobody_observed(
    monkeypatch, abandon, prefetch_depth, backend
):
    """A final poll publishes its ``prepared/`` key the moment it runs, before
    the pump sees it; abandoning the window must delete that key too."""
    job = make_job(prefetch_depth, backend)
    reference = MegaScaleData.deploy(job)
    system = MegaScaleData.deploy(job)
    try:
        expected = run_steps(reference, 6)
        delivered = run_steps(system, 2)
        frozen = system.pipeline.next_issue_step
        freeze_before_preparing(monkeypatch, frozen)
        delivered += run_steps(system, 1)
        item = next(item for item in system.pipeline._queue if item.step == frozen)
        assert item.state == "preparing"
        # Eight samples a step: every ticket is one poll, so each is final.
        while not any(future.done() for future in item.poll_futures.values()):
            if not system.system.tick():
                break
        published = [
            future.result()["key"] for future in item.poll_futures.values() if future.done()
        ]
        assert published
        assert set(published) <= set(system.system.gcs.keys("prepared/"))
        monkeypatch.undo()

        getattr(system if abandon == "shutdown" else system.pipeline, abandon)()
        assert system.system.gcs.keys("prepared/") == []
        if abandon == "flush":
            delivered += run_steps(system, 3)
            assert system.system.gcs.keys("prepared/") == []
        assert delivered == expected[: len(delivered)]
    finally:
        reference.shutdown()
        system.shutdown()


class TestBestEffortSitesRaiseProgrammingErrors:
    def test_flush_propagates_a_type_error_from_release(self, monkeypatch):
        system = MegaScaleData.deploy(make_job(prefetch_depth=2))
        try:
            system.run_step()

            def broken(self, step):
                raise TypeError("bug")

            monkeypatch.setattr(DataConstructor, "release_steps_below", broken)
            with pytest.raises(TypeError, match="bug"):
                system.pipeline.flush()
        finally:
            monkeypatch.undo()
            system.shutdown()

    def test_flush_skips_an_unreachable_constructor(self, monkeypatch):
        system = MegaScaleData.deploy(make_job(prefetch_depth=2))
        try:
            system.run_step()

            def gone(self, step):
                raise ActorError("stopped")

            monkeypatch.setattr(DataConstructor, "release_steps_below", gone)
            system.pipeline.flush()
            assert system.pipeline.inflight() == []
            assert system.pipeline.next_issue_step == system.step
        finally:
            monkeypatch.undo()
            system.shutdown()

    def test_shutdown_propagates_a_type_error_from_on_stop(self, monkeypatch):
        system = MegaScaleData.deploy(make_job(prefetch_depth=1))
        system.run_step()

        def broken(self):
            raise TypeError("bug")

        monkeypatch.setattr(SourceLoader, "on_stop", broken)
        with pytest.raises(TypeError, match="bug"):
            system.shutdown()
