"""Integration tests: loader failures injected mid-prefetch.

The asynchronous pipeline keeps several future steps in flight, so a Source
Loader can die while its work for a prefetched step is queued or partially
executed.  Recovery must (a) keep delivering steps in order, (b) neither drop
nor duplicate any sample, and (c) reproduce the exact delivery sequence of a
failure-free synchronous run (deterministic replay, Sec. 6.1).
"""

from __future__ import annotations

import threading
from dataclasses import replace

import pytest

from repro.actors.runtime import ActorSystem
from repro.chaos.engine import ChaosEngine
from repro.chaos.plan import FaultEvent, FaultPlan
from repro.core.fault_tolerance import BREAKER_THRESHOLD, DEGRADED_WAIT_ATTEMPTS
from repro.core.framework import MegaScaleData, TrainingJobSpec
from repro.core.source_loader import SourceLoader
from repro.data.synthetic import build_source_catalog, navit_like_spec
from repro.errors import ActorDead, ActorTimeout
from repro.storage.filesystem import SimulatedFileSystem


def make_job(prefetch_depth: int, shadows: bool, seed: int) -> TrainingJobSpec:
    return TrainingJobSpec(
        pp=1, dp=2, cp=1, tp=1, encoder=None, strategy="backbone_balance",
        samples_per_dp_step=4, num_microbatches=2, num_sources=3,
        samples_per_source=64, seed=seed, prefetch_depth=prefetch_depth,
        enable_shadow_loaders=shadows,
    )


def delivery_signature(result):
    return {
        rank: [
            (piece.rank, piece.microbatch_index, piece.token_count, piece.payload_bytes)
            for piece in delivery.slices
        ]
        for rank, delivery in sorted(result.deliveries.items())
    }


def delivered_sample_ids(result):
    """Every sample id the step's plan demanded, per source."""
    return sorted(sid for ids in result.plan.source_demands.values() for sid in ids)


@pytest.mark.parametrize("shadows,expected_kind", [(True, "shadow_promotion"), (False, "restart")])
def test_loader_failure_mid_prefetch_preserves_sequence(shadows, expected_kind):
    seed = 3 if shadows else 5
    reference = MegaScaleData.deploy(make_job(0, shadows=False, seed=seed))
    system = MegaScaleData.deploy(make_job(2, shadows=shadows, seed=seed))
    try:
        reference_steps = [reference.run_step() for _ in range(6)]
        results = [system.run_step()]

        # Steps 1-2 are already prefetched; the failure lands on the next
        # step's in-flight loader work.
        victim = system.loader_handles[0]
        system.system.failures.fail(victim.name)
        results.extend(system.run_step() for _ in range(5))

        # Recovery happened through the fault-tolerance manager.
        kinds = [event.kind for event in system.fault_manager.events()]
        assert expected_kind in kinds

        # Step ordering is preserved.
        assert [r.step for r in results] == [0, 1, 2, 3, 4, 5]

        # No sample dropped or duplicated: each step demanded distinct
        # samples, and the overall sequence matches the failure-free run.
        for ref_result, got in zip(reference_steps, results):
            ids = delivered_sample_ids(got)
            assert len(ids) == len(set(ids))
            assert ids == delivered_sample_ids(ref_result)
            assert delivery_signature(got) == delivery_signature(ref_result)
    finally:
        reference.shutdown()
        system.shutdown()


def test_failure_during_plan_gather_recovers():
    """A loader that dies before the Planner's buffer gather is re-planned around."""
    seed = 11
    reference = MegaScaleData.deploy(make_job(0, shadows=False, seed=seed))
    system = MegaScaleData.deploy(make_job(1, shadows=True, seed=seed))
    try:
        reference_steps = [reference.run_step() for _ in range(4)]
        results = [system.run_step(), system.run_step()]
        # Kill the loader outright so even the planner's summary gather fails.
        victim = system.loader_handles[-1]
        system.system.kill_actor(victim.name)
        results.extend(system.run_step() for _ in range(2))
        assert [r.step for r in results] == [0, 1, 2, 3]
        assert any(e.kind in ("shadow_promotion", "restart") for e in system.fault_manager.events())
        for ref_result, got in zip(reference_steps, results):
            assert delivery_signature(got) == delivery_signature(ref_result)
    finally:
        reference.shutdown()
        system.shutdown()


def test_checkpointed_loader_failure_stays_byte_identical():
    """Regression: a loader that fails after a differential checkpoint stays
    byte-identical — the replacement restores the checkpoint's replay snapshot
    and replays only the plan suffix past it, never advancing twice."""
    seed = 9
    reference = MegaScaleData.deploy(
        replace(make_job(0, shadows=False, seed=seed), replay_window=2)
    )
    system = MegaScaleData.deploy(replace(make_job(2, shadows=True, seed=seed), replay_window=2))
    try:
        reference_steps = [reference.run_step() for _ in range(8)]
        results = [system.run_step() for _ in range(3)]
        victim = system.loader_handles[0]
        checkpoint = system.fault_manager.last_loader_checkpoint(victim.name)
        assert checkpoint is not None and checkpoint["step"] > 0
        system.system.failures.fail(victim.name)
        results.extend(system.run_step() for _ in range(5))
        assert "shadow_promotion" in [e.kind for e in system.fault_manager.events()]
        for ref_result, got in zip(reference_steps, results):
            assert delivery_signature(got) == delivery_signature(ref_result)
    finally:
        reference.shutdown()
        system.shutdown()


def test_reshard_flush_keeps_plan_history_replayable():
    """Regression: flushed prefetched plans must leave the Planner history
    monotone/unique and loaders replayable, so a failure after a reshard
    still recovers deterministically."""
    from repro.core.resharding import ReshardNotification
    from repro.parallelism.mesh import DeviceMesh

    def scenario():
        system = MegaScaleData.deploy(make_job(2, shadows=True, seed=7))
        try:
            system.run_step()
            system.run_step()
            system.handle_reshard(
                ReshardNotification(step=2, new_mesh=DeviceMesh(pp=1, dp=2, cp=1, tp=2))
            )
            system.run_step()
            system.system.failures.fail(system.loader_handles[0].name)
            outputs = [delivery_signature(system.run_step()) for _ in range(3)]
            history = [plan.step for plan in system.planner_handle.instance().plan_history()]
            return outputs, history
        finally:
            system.shutdown()

    outputs_a, history_a = scenario()
    outputs_b, history_b = scenario()
    assert history_a == sorted(set(history_a))  # no duplicated steps after flush
    assert outputs_a == outputs_b  # recovery after reshard is deterministic
    assert history_a == history_b


def test_recovered_loader_serves_subsequent_prefetch():
    """After failover the promoted loader participates in later prefetched steps."""
    system = MegaScaleData.deploy(make_job(2, shadows=True, seed=7))
    try:
        system.run_step()
        victim = system.loader_handles[1]
        victim_source = victim.instance().source.name
        system.system.failures.fail(victim.name)
        results = [system.run_step() for _ in range(4)]
        promoted = system.loader_handles[1]
        assert promoted.name != victim.name  # the shadow took over
        assert promoted.instance().source.name == victim_source
        # The promoted loader keeps serving that source's demands.
        served_after = sum(
            len(r.plan.source_demands.get(victim_source, [])) for r in results[-2:]
        )
        assert served_after > 0
        assert all(r.deliveries for r in results)
    finally:
        system.shutdown()


def test_a_row_is_costed_once_however_often_it_is_reread(monkeypatch):
    """Mirrors, flush rewinds, restarts and ``restore`` re-read rows the process
    already costed: each row group is costed once per cost key, whoever reads
    it, and no read builds a ``SampleMetadata``."""
    from repro.data import sources
    from repro.data.mixture import MixtureSchedule

    built = []
    plain_record = sources.SampleMetadata
    monkeypatch.setattr(
        sources, "SampleMetadata", lambda *fields: built.append(1) or plain_record(*fields)
    )
    served = []
    plain_take = sources.SourceCursor.take_costed

    def take_costed(cursor, count, key, cost):
        rows = plain_take(cursor, count, key, cost)
        served.extend((cursor.source.name, sample_id) for sample_id in rows[0].tolist())
        return rows

    monkeypatch.setattr(sources.SourceCursor, "take_costed", take_costed)

    # Every (row group, cost key) the loaders' costing runs for.
    costed = []
    plain_costed = sources.SourceCursor._costed

    def costed_rows(cursor, group, picked, key, cost):
        def counted(columns):
            costed.append((id(group), key))
            return cost(columns)

        return plain_costed(cursor, group, picked, key, counted)

    monkeypatch.setattr(sources.SourceCursor, "_costed", costed_rows)

    job = TrainingJobSpec(
        pp=1, dp=2, cp=1, tp=1, encoder=None, strategy="backbone_balance",
        samples_per_dp_step=8, num_microbatches=2, num_sources=3, samples_per_source=256,
        seed=9, prefetch_depth=2, checkpoint_backend="sqlite", replay_window=10,
    )
    filesystem = SimulatedFileSystem()
    catalog = build_source_catalog(
        navit_like_spec(num_sources=3, samples_per_source=256, seed=9), filesystem
    )
    names = catalog.names()
    system = MegaScaleData.deploy(job, catalog=catalog, filesystem=filesystem)
    try:
        steps = 0

        def run(count):
            nonlocal steps
            for _ in range(count):
                assert system.run_step().step == steps
                steps += 1

        run(3)
        system.set_mixture(
            MixtureSchedule.static({name: 2.0 if name == names[0] else 1.0 for name in names}),
            flush_pending=True,
        )
        run(3)
        system.scale_source(names[0], 3)
        run(3)
        victim = next(
            handle for handle in system.loader_handles
            if len(system.fleet.group_for(handle.name).members) == 1
        )
        system.system.failures.fail(victim.name)
        run(3)
        system.scale_source(names[0], 1)
        run(2)
        system.save_checkpoint()
        store = system.checkpoint_store
        system.shutdown()
        system = MegaScaleData.restore(job, store, catalog=catalog, filesystem=filesystem)
        run(1)
    finally:
        system.shutdown()
    assert len(served) > 3 * len(set(served))  # the scenario does re-read
    assert built == []
    assert costed and len(costed) == len(set(costed))


# -- planner faults: one policy at every depth ---------------------------------------


@pytest.mark.parametrize("depth", [0, 2])
def test_killed_planner_is_restarted_once(depth):
    """Planner calls go through the handle at every depth, so a planner killed
    between steps is restarted (once) by the next plan — depth 0 used to plan
    on the dead actor's instance."""
    reference = MegaScaleData.deploy(make_job(depth, shadows=False, seed=11))
    system = MegaScaleData.deploy(make_job(depth, shadows=False, seed=11))
    try:
        expected = [delivery_signature(reference.run_step()) for _ in range(5)]
        delivered = [delivery_signature(system.run_step())]
        planner = system.planner_handle.name
        system.system.kill_actor(planner)
        delivered.extend(delivery_signature(system.run_step()) for _ in range(4))

        assert delivered == expected
        assert system.system.restart_count(planner) == 1
        assert system.planner_handle.state.value == "running"
        kinds = [event.kind for event in system.fault_manager.events()]
        assert kinds == ["coordinator_restart"]
    finally:
        reference.shutdown()
        system.shutdown()


#: A ``gcs_blip`` window long enough to last until :func:`blip` clears it.
UNTIL_CLEARED_S = 1e9


def blip(system, names) -> None:
    """Time out every call to ``names`` from now until the next ``blip``;
    no names clears the window."""
    events = [
        FaultEvent("gcs_blip", system.clock.now_s, target=name, duration_s=UNTIL_CLEARED_S)
        for name in sorted(names)
    ]
    if events:
        ChaosEngine(FaultPlan(events)).attach(system)
    else:
        system.chaos = None


@pytest.mark.parametrize("depth", [0, 2])
def test_planner_timeout_is_waited_out_or_cleared(depth):
    """A planner blip is seen at every depth: the step waits out the
    degraded-wait budget and raises; cleared first, it delivers normally."""
    reference = MegaScaleData.deploy(make_job(depth, shadows=False, seed=12))
    system = MegaScaleData.deploy(make_job(depth, shadows=False, seed=12))
    try:
        expected = [delivery_signature(reference.run_step()) for _ in range(3)]
        planner = system.planner_handle.name
        failed_plans = []
        invoke = system.system.invoke

        def counting_invoke(name, method, *args, **kwargs):
            try:
                return invoke(name, method, *args, **kwargs)
            except ActorTimeout:
                if name == planner and method == "generate_plan":
                    failed_plans.append(method)
                raise

        system.system.invoke = counting_invoke
        blip(system.system, [planner])
        with pytest.raises(ActorTimeout):
            system.run_step()
        assert len(failed_plans) == DEGRADED_WAIT_ATTEMPTS

        blip(system.system, [])
        assert [delivery_signature(system.run_step()) for _ in range(3)] == expected
    finally:
        reference.shutdown()
        system.shutdown()


@pytest.mark.parametrize("depth", [0, 2])
def test_a_constructor_blip_past_the_retry_budget_is_waited_out(depth):
    """A blip on ``get_batch`` that outlasts the per-call retries (the
    constructor's breaker opens) is waited out on the clock: the step
    completes, later, with the fault-free run's batches."""
    reference = MegaScaleData.deploy(make_job(depth, shadows=False, seed=12))
    system = MegaScaleData.deploy(make_job(depth, shadows=False, seed=12))
    try:
        expected = [delivery_signature(reference.run_step()) for _ in range(3)]
        invoke = system.system.invoke
        victims, timeouts = [], []

        def blipping_invoke(name, method, args, kwargs, advance_rpc):
            if method == "get_batch" and args[0] == 1 and not victims:
                victims.append(name)
                now_s = system.system.clock.now_s
                window = FaultEvent("gcs_blip", now_s, target=name, duration_s=2.0)
                ChaosEngine(FaultPlan([window])).attach(system.system)
            try:
                return invoke(name, method, args, kwargs, advance_rpc)
            except ActorTimeout:
                timeouts.append(name)
                raise

        system.system.invoke = blipping_invoke
        assert [delivery_signature(system.run_step()) for _ in range(3)] == expected
        # More failures than the breaker lets one retried call absorb: the
        # wait-out loop re-issued the call after the retries gave up.
        assert timeouts == victims * len(timeouts)
        assert len(timeouts) > BREAKER_THRESHOLD
    finally:
        reference.shutdown()
        system.shutdown()


def test_a_blipped_staging_release_is_left_to_the_next_sweep():
    """A blip on a constructor's step-boundary ``release_steps_below`` does not
    fail the step: the skipped step stays staged until the next boundary's
    sweep frees it, and every batch is the fault-free run's (prefetching;
    at depth 0 the extra staged step fills the queue before that sweep)."""
    reference = MegaScaleData.deploy(make_job(2, shadows=False, seed=12))
    system = MegaScaleData.deploy(make_job(2, shadows=False, seed=12))
    try:
        expected = [delivery_signature(reference.run_step()) for _ in range(4)]
        invoke = system.system.invoke
        blipped = []

        def blipping_invoke(name, method, args, kwargs, advance_rpc):
            if method != "release_steps_below" or args != (1,):
                return invoke(name, method, args, kwargs, advance_rpc)
            blip(system.system, [name])
            try:
                return invoke(name, method, args, kwargs, advance_rpc)
            except ActorTimeout:
                blipped.append(name)
                raise
            finally:
                blip(system.system, [])

        system.system.invoke = blipping_invoke
        constructors = [handle.instance() for handle in system.constructor_handles]
        delivered = [delivery_signature(system.run_step()) for _ in range(2)]
        assert sorted(blipped) == sorted(handle.name for handle in system.constructor_handles)
        assert all(0 in constructor.staged_steps() for constructor in constructors)
        delivered += [delivery_signature(system.run_step()) for _ in range(2)]
        assert delivered == expected
        assert all(0 not in constructor.staged_steps() for constructor in constructors)
    finally:
        reference.shutdown()
        system.shutdown()


# -- faults on the polls that carry a ticket's accept and hand-off -------------------

FAULTED_STEP = 2
#: Real seconds per modelled second on the wallclock backend.
TIME_SCALE = 2e-4


def two_poll_job(prefetch_depth: int, num_sources: int = 2, **overrides) -> TrainingJobSpec:
    """Sources at 12 demanded ids per step each: a deferred ticket is two polls."""
    return TrainingJobSpec(
        pp=1, dp=2, cp=1, tp=1, encoder=None, strategy="backbone_balance",
        samples_per_dp_step=6 * num_sources, num_microbatches=2, num_sources=num_sources,
        samples_per_source=96, seed=4, prefetch_depth=prefetch_depth, **overrides,
    )


def fault_polls(monkeypatch, kind: str, which: str, loaders: int = 1) -> dict:
    """Fault one loader poll of ``FAULTED_STEP`` on each of ``loaders``
    loaders, once, before its body runs.

    ``which="first"`` picks a poll that carries sample ids (it would accept the
    ticket); ``"final"`` picks a continuation poll that would finish its
    ticket.  Returns a log of every loader poll — ``(loader, ticket, carried
    ids, failed)`` — plus the tickets accepted and the keys published.
    """
    log = {"polls": [], "accepted": [], "published": [], "faulted": []}
    invoke = ActorSystem.invoke
    accept = SourceLoader.prepare_async
    publish = SourceLoader.fetch_prepared_ref
    # Wallclock lanes invoke concurrently: pick, blip and clear victims atomically.
    picking = threading.Lock()
    blipped: set[str] = set()

    def arm_fault(system, name: str):
        """Make the next call to ``name`` time out (``"blip"``) or kill the
        actor (``"kill"``); returns the disarm callable."""
        if kind == "kill":
            system.kill_actor(name)
            return lambda: None
        blipped.add(name)
        blip(system, blipped)

        def disarm() -> None:
            with picking:
                blipped.discard(name)
                blip(system, blipped)

        return disarm

    def is_target(system, name, method, args) -> bool:
        if len(log["faulted"]) >= loaders or method != "poll" or args[0] != FAULTED_STEP:
            return False
        if (name, args[0]) in log["faulted"]:
            return False
        if which == "first":
            return args[2] is not None
        if args[2] is not None:
            return False
        return system.actor_instance(name)._tickets[args[0]].remaining() <= args[1]

    def faulty_invoke(self, name, method, args, kwargs, advance_rpc):
        disarm = None
        with picking:
            if is_target(self, name, method, args):
                log["faulted"].append((name, args[0]))
                disarm = arm_fault(self, name)
        try:
            result = invoke(self, name, method, args, kwargs, advance_rpc)
        except (ActorDead, ActorTimeout):
            if method == "poll":
                log["polls"].append((name, args[0], args[2] is not None, True))
            raise
        finally:
            if disarm is not None:
                disarm()
        if method == "poll":
            log["polls"].append((name, args[0], args[2] is not None, False))
        return result

    def counted_accept(self, ticket, sample_ids):
        log["accepted"].append((self.actor_name, ticket))
        return accept(self, ticket, sample_ids)

    def counted_publish(self, sample_ids):
        ref = publish(self, sample_ids)
        log["published"].append((self.actor_name, ref["key"]))
        return ref

    monkeypatch.setattr(ActorSystem, "invoke", faulty_invoke)
    monkeypatch.setattr(SourceLoader, "prepare_async", counted_accept)
    monkeypatch.setattr(SourceLoader, "fetch_prepared_ref", counted_publish)
    return log


def victim_polls(log: dict, victim: tuple[str, int]) -> list[tuple[bool, bool]]:
    """``(carried ids, failed)`` of every poll of the victim's ticket, in order."""
    return [(ids, failed) for name, step, ids, failed in log["polls"] if (name, step) == victim]


def assert_each_ticket_handed_off_once(log: dict) -> None:
    """Every ticket was accepted exactly once and handed off exactly once."""
    assert len(log["accepted"]) == len(set(log["accepted"]))
    tickets = sorted({(name, step) for name, step, _, _ in log["polls"]})
    assert sorted(log["accepted"]) == tickets
    assert len(log["published"]) == len(tickets)
    for victim, _ in log["faulted"]:
        assert [name for name, _ in log["published"]].count(victim) == len(
            [t for t in tickets if t[0] == victim]
        )


@pytest.mark.parametrize(
    "prefetch_depth,which", [(0, "first"), (2, "first"), (2, "final")]
)
def test_a_fault_on_a_folded_poll_is_retried_exactly_once(monkeypatch, prefetch_depth, which):
    """The accept rides a ticket's first poll and the hand-off its final one.
    A fault on either fires before the body runs, so the retry accepts the
    ticket once and publishes one ``prepared/`` key, and the run delivers
    what a fault-free run delivers."""
    reference = MegaScaleData.deploy(two_poll_job(prefetch_depth))
    try:
        expected = [delivery_signature(reference.run_step()) for _ in range(5)]
    finally:
        reference.shutdown()
    log = fault_polls(monkeypatch, "blip", which)
    system = MegaScaleData.deploy(two_poll_job(prefetch_depth))
    try:
        assert [delivery_signature(system.run_step()) for _ in range(5)] == expected
        assert system.system.gcs.keys("prepared/") == []
    finally:
        system.shutdown()

    assert len(log["faulted"]) == 1
    polls = victim_polls(log, log["faulted"][0])
    assert sum(failed for _, failed in polls) == 1
    if which == "first":
        # Re-issued with its ids: the ticket was never registered.
        assert polls[:2] == [(True, True), (True, False)]
    else:
        assert polls[-2:] == [(False, True), (False, False)]
    assert_each_ticket_handed_off_once(log)


@pytest.mark.parametrize("kind", ["blip", "kill"])
@pytest.mark.parametrize("backend", ["virtual", "wallclock"])
def test_two_first_polls_failing_in_one_round_are_each_retried_once(
    monkeypatch, backend, kind
):
    """A pump round drains the engine, so two loaders' first polls of one step
    can fail in the same round (timed out, or the loaders killed just before
    them).  The round handles one failure and the next round the other: each
    failed poll is re-sent once, with its ids, each ticket is accepted once
    and handed off once, and the run delivers what a fault-free run does."""
    job = two_poll_job(2, num_sources=3, backend=backend, wallclock_time_scale=TIME_SCALE)
    reference = MegaScaleData.deploy(job)
    try:
        expected = [delivery_signature(reference.run_step()) for _ in range(5)]
    finally:
        reference.shutdown()
    log = fault_polls(monkeypatch, kind, "first", loaders=2)
    system = MegaScaleData.deploy(job)
    try:
        assert [delivery_signature(system.run_step()) for _ in range(5)] == expected
        assert system.system.gcs.keys("prepared/") == []
        recoveries = [event.kind for event in system.fault_manager.events()]
    finally:
        system.shutdown()

    assert len(log["faulted"]) == 2
    for victim in log["faulted"]:
        polls = victim_polls(log, victim)
        assert sum(failed for _, failed in polls) == 1
        assert polls[:2] == [(True, True), (True, False)]
    if backend == "virtual":
        # Both failed in one round: neither retry ran before the other failure.
        faulted = [
            failed for name, step, _, failed in log["polls"] if (name, step) in log["faulted"]
        ]
        assert faulted[:2] == [True, True]
    assert recoveries == (["restart", "restart"] if kind == "kill" else [])
    assert_each_ticket_handed_off_once(log)


def test_checkpoint_members_surfaces_programming_errors(monkeypatch):
    """Recovery rides out the ``ReproError`` taxonomy, not bugs: a member
    gone from the system is skipped, but a ``TypeError`` from one member's
    snapshot propagates instead of being skipped."""
    system = MegaScaleData.deploy(make_job(0, shadows=False, seed=13))
    try:
        system.run_step()
        dead, buggy, *_ = system.fleet.all_handles()
        system.system.stop_actor(dead.name)
        system.recovery.checkpoint_members(1, force=True)
        manager = system.fault_manager
        assert manager.last_loader_checkpoint(dead.name)["step"] == 0
        assert manager.last_loader_checkpoint(buggy.name)["step"] == 1

        snapshot = SourceLoader.replay_checkpoint
        broken = buggy.instance()

        def replay_checkpoint(self):
            if self is broken:
                raise TypeError("a bug, not a fault")
            return snapshot(self)

        monkeypatch.setattr(SourceLoader, "replay_checkpoint", replay_checkpoint)
        with pytest.raises(TypeError, match="a bug"):
            system.recovery.checkpoint_members(2, force=True)
    finally:
        monkeypatch.undo()
        system.shutdown()
