"""Mid-run actor retirement and indexed-heap invalidation regressions.

Covers the elastic-fleet runtime contract: `retire_actor` drains pending
events, destroyed/retired actors never receive another dispatch, and
stale indexed-heap entries (including across name reuse) neither leak nor
perturb the dispatch order of surviving actors — proven by trace equivalence
against the queue-scan oracle of ``test_actors_dispatch_equivalence.py``.
"""

from __future__ import annotations

import pytest

from repro.actors.actor import Actor
from repro.actors.runtime import ActorSystem, ClusterSpec
from repro.errors import ActorError
from test_actors_dispatch_equivalence import scan_dispatch


class Recorder(Actor):
    """Counts invocations so tests can see exactly what executed."""

    role = "recorder"

    def __init__(self, log: list | None = None, tag: str = "") -> None:
        super().__init__()
        self.log = log if log is not None else []
        self.tag = tag

    def work(self, token: int) -> int:
        self.log.append((self.tag or self.actor_name, token))
        return token


def make_system() -> ActorSystem:
    return ActorSystem(ClusterSpec(accelerator_nodes=1, cpu_pods=1))


class TestRetireActor:
    def test_drain_retirement_executes_queued_calls_first(self):
        system = make_system()
        log: list = []
        handle = system.create_actor(lambda: Recorder(log), name="worker")
        futures = [handle.submit("work", token) for token in range(3)]
        assert system.retire_actor("worker") is False  # queue non-empty: draining
        assert system.retiring("worker")
        with pytest.raises(ActorError):
            handle.submit("work", 99)  # no new calls while draining
        system.drain()
        assert [token for _, token in log] == [0, 1, 2]
        assert all(future.result() == token for token, future in enumerate(futures))
        # The drain completed: the actor is gone and its resources released.
        assert "worker" not in system.list_actor_names()
        assert not system.retiring("worker")

    def test_empty_queue_retires_immediately(self):
        system = make_system()
        system.create_actor(lambda: Recorder(), name="idle", cpu_cores=2.0)
        node = system.actor_node("idle")
        free_before = system.node(node).available_cpu
        assert system.retire_actor("idle") is True
        assert "idle" not in system.list_actor_names()
        assert system.node(node).available_cpu == free_before + 2.0

    def test_cancel_during_drain_finalizes_retirement(self):
        system = make_system()
        handle = system.create_actor(lambda: Recorder(), name="worker")
        handle.submit("work", 1)
        assert system.retire_actor("worker") is False
        system.cancel_pending("worker")
        # Cancellation emptied the queue; the retirement must not dangle.
        assert "worker" not in system.list_actor_names()

    def test_tick_never_dispatches_to_destroyed_actor(self):
        system = make_system()
        log: list = []
        handle = system.create_actor(lambda: Recorder(log), name="victim")
        survivor = system.create_actor(lambda: Recorder(log), name="survivor")
        doomed = [handle.submit("work", token) for token in range(2)]
        survivor.submit("work", 7)
        system.stop_actor("victim")
        system.drain()
        # The destroyed actor's calls failed without executing; the survivor ran.
        assert log == [("survivor", 7)]
        assert all(isinstance(f.exception(), ActorError) for f in doomed)

    def test_mid_run_spawn_anchor_delays_first_event(self):
        system = make_system()
        system.create_actor(lambda: Recorder(), name="early")
        system.advance_clock(1.0)
        late = system.create_actor(lambda: Recorder(), name="late", free_from_s=3.5)
        future = late.submit("work", 1)
        system.drain()
        # The spawned actor's first event cannot start before its anchor.
        assert future.available_at_s >= 3.5


def run_scripted_lifecycle(system: ActorSystem):
    """A scripted create/submit/destroy/reuse sequence, returning the trace.

    Exercises the stale-heap hazards: an actor accumulating multiple heap
    entries (head cancellation re-pushes), destruction with queued events,
    and immediate name reuse with new submissions.
    """
    system.dispatch_trace = []
    log: list = []

    a = system.create_actor(lambda: Recorder(log, tag="a"), name="a")
    b = system.create_actor(lambda: Recorder(log, tag="b"), name="b")
    c = system.create_actor(lambda: Recorder(log, tag="c"), name="c")

    # Give "a" two heap entries: cancel its head so the next call re-pushes.
    head = a.submit_timed("work", 0, earliest_start_s=5.0)
    a.submit_timed("work", 1, earliest_start_s=0.5)
    head.cancel()
    b.submit_timed("work", 2, earliest_start_s=1.0)
    system.tick(1)

    # Destroy "a" with a queued event, then immediately reuse its name.
    a.submit_timed("work", 3, earliest_start_s=9.0)
    system.stop_actor("a")
    a2 = system.create_actor(lambda: Recorder(log, tag="a2"), name="a")
    a2.submit_timed("work", 4, earliest_start_s=0.25)
    c.submit_timed("work", 5, earliest_start_s=0.75)
    system.tick(2)

    # Retire the reused name while another actor still has work queued.
    b.submit_timed("work", 6, earliest_start_s=2.0)
    a2.submit_timed("work", 7, earliest_start_s=2.5)
    system.retire_actor("a")
    system.drain()
    return system.dispatch_trace, log


class TestStaleHeapEntries:
    def test_destroy_and_reuse_matches_the_scan_oracle(self):
        """Regression (heap vs scan): destroying/retiring actors with queued
        events — including reusing the freed name — must produce the exact
        same dispatch trace as a scan over every queue head."""
        indexed_trace, indexed_log = run_scripted_lifecycle(make_system())
        scan_trace, scan_log = run_scripted_lifecycle(scan_dispatch(make_system()))
        assert indexed_trace == scan_trace
        assert indexed_log == scan_log

    def test_heap_count_stays_exact_across_name_reuse(self):
        """The count-corruption hazard: phantom entries of a destroyed
        incarnation must not be charged against the reused name's live
        entries (which would strand a non-empty queue unrepresented)."""
        system = make_system()
        log: list = []
        a = system.create_actor(lambda: Recorder(log, tag="old"), name="a")
        head = a.submit_timed("work", 0, earliest_start_s=5.0)
        a.submit_timed("work", 1, earliest_start_s=6.0)
        head.cancel()  # old incarnation now holds two heap entries
        system.stop_actor("a")
        assert "a" not in system.engine._heap_entries

        a2 = system.create_actor(lambda: Recorder(log, tag="new"), name="a")
        future = a2.submit_timed("work", 2, earliest_start_s=0.0)
        ran = system.drain()
        assert ran == 1
        assert future.result() == 2
        assert log == [("new", 2)]
        # All phantom entries were discarded and the accounting is clean.
        assert system.engine._heap_entries.get("a", 0) == 0
        assert not system.engine._heap

    def test_pending_events_of_dead_actor_fail_not_dispatch(self):
        system = make_system()
        log: list = []
        a = system.create_actor(lambda: Recorder(log), name="a")
        future = a.submit("work", 0)
        system.stop_actor("a")
        assert system.drain() == 0
        assert isinstance(future.exception(), ActorError)
        assert log == []
