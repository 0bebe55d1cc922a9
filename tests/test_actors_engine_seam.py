"""The engine seam, held by a test instead of a base class.

``ActorSystem.engine`` is a :class:`VirtualEngine` or a
:class:`WallclockEngine` — two concrete classes with no shared ancestor.
These tests are what keeps them twins: the same public method set, the same
outcome for one lifecycle scenario written once, and one duration model.
"""

from __future__ import annotations

import inspect
import time

import pytest

from repro.actors.actor import Actor
from repro.actors.runtime import ActorSystem, ClusterSpec
from repro.actors.virtual import VirtualEngine
from repro.actors.wallclock import WallclockEngine
from repro.chaos import ChaosEngine, FaultEvent, FaultPlan
from repro.errors import ActorError

#: Real seconds per virtual second on the wallclock rows.
FAST = 0.01
#: Virtual seconds a "long" call holds its lane: 0.3 s real at FAST, ample
#: for the driver's (microsecond) lifecycle operations to land inside it.
HOLD_S = 30.0

ENGINES = ["virtual", "wallclock"]


def make_system(backend: str) -> ActorSystem:
    return ActorSystem(
        ClusterSpec(accelerator_nodes=1, cpu_pods=1),
        backend=backend,
        time_scale=FAST,
    )


def settle(system: ActorSystem, predicate) -> None:
    """Run until ``predicate()`` holds: the virtual engine is ticked one event
    at a time, the wallclock engine's lanes only need waiting for."""
    deadline = time.monotonic() + 30.0
    while not predicate():
        assert time.monotonic() < deadline, "scenario did not settle"
        if system.backend == "virtual":
            assert system.tick() == 1
        else:
            time.sleep(0.001)


def public_callables(cls) -> set[str]:
    return {
        name
        for name, member in inspect.getmembers(cls, callable)
        if not name.startswith("_")
    }


def test_engines_serve_one_method_set():
    assert public_callables(VirtualEngine) == public_callables(WallclockEngine)
    assert public_callables(VirtualEngine) == {
        "register_actor", "stop_actor", "is_idle", "free_at_s", "quiesce",
        "direct_call", "submit", "on_future_cancelled", "tick", "drain",
        "wait_future", "pending_count", "cancel_pending",
    }


@pytest.mark.parametrize("backend", ENGINES)
def test_system_always_has_exactly_one_engine(backend):
    system = make_system(backend)
    expected = WallclockEngine if backend == "wallclock" else VirtualEngine
    assert type(system.engine) is expected


@pytest.mark.parametrize("backend", ENGINES)
def test_lifecycle_scenario_is_backend_independent(backend):
    """Cancel a head, drain-retire, stop with a call queued."""
    system = make_system(backend)
    bodies: list[tuple[str, str]] = []

    class Probe(Actor):
        def work(self, tag: str) -> str:
            bodies.append((self.actor_name, tag))
            return tag

    a = system.create_actor(Probe, name="a")
    b = system.create_actor(Probe, name="b")
    # Three calls per actor. A call with duration HOLD_S holds its actor's
    # (single) lane after its body, so on either engine the call behind it
    # is the actor's unstarted queue head.
    futures = {}
    for tag, handle, duration_s in [
        ("a1", a, HOLD_S), ("b1", b, HOLD_S), ("a2", a, 0.0),
        ("b2", b, HOLD_S), ("a3", a, 0.0), ("b3", b, 0.0),
    ]:
        futures[tag] = handle.submit_timed("work", tag, duration_s=duration_s)
    settle(system, lambda: len(bodies) == 2)

    assert futures["a2"].cancel()  # a's queue head
    assert system.retire_actor("a") is False  # a3 is still queued
    assert system.retiring("a")
    with pytest.raises(ActorError, match="retiring"):
        a.submit("work", "late")
    # b2 holds b's lane after its body; b3 is still queued.
    settle(system, lambda: ("b", "b2") in bodies and ("a", "a3") in bodies)
    system.stop_actor("b")
    settle(system, lambda: all(future.done() for future in futures.values()))
    system.drain()  # the wallclock engine finalizes retirements on a drain

    assert [tag for name, tag in bodies if name == "a"] == ["a1", "a3"]
    assert [tag for name, tag in bodies if name == "b"] == ["b1", "b2"]
    outcome = {}
    for tag, future in futures.items():
        if future.cancelled():
            outcome[tag] = "cancelled"
        elif future.exception() is not None:
            assert "was stopped" in str(future.exception())
            outcome[tag] = "stopped"
        else:
            assert future.result() == tag
            outcome[tag] = "done"
    assert outcome == {
        "a1": "done", "a2": "cancelled", "a3": "done",
        "b1": "done", "b2": "done", "b3": "stopped",
    }
    assert system.pending_count() == 0
    assert system.list_actor_names() == []
    assert not system.retiring("a") and not system.retiring("b")
    assert all(node.reserved_cpu == 0 for node in system.nodes)


# -- one duration model -----------------------------------------------------------------


class PlainProvider:
    def call_duration_s(self, actor, method, result):
        return result


class LaneProvider:
    wants_lane_context = True

    def __init__(self) -> None:
        self.seen: list[tuple[int, float, tuple]] = []

    def call_duration_s(
        self, actor, method, result, busy_lanes=1, start_s=0.0, lane_ends_s=(), role="actor",
        chunk=0,
    ):
        assert role == type(actor).role
        assert chunk == 0
        self.seen.append((busy_lanes, start_s, lane_ends_s))
        return result * busy_lanes


class Worker(Actor):
    role = "worker"

    def cost(self, seconds: float) -> float:
        return seconds


def straggling(system: ActorSystem, factor: float = 3.0) -> ActorSystem:
    plan = FaultPlan([FaultEvent("straggler", 0.0, target="worker", duration_s=1e6, factor=factor)])
    ChaosEngine(plan).attach(system)
    return system


def test_modelled_duration_is_the_one_model():
    system = straggling(make_system("virtual"))
    system.create_actor(Worker, name="w")
    assert system.modelled_duration("w", "cost", 2.0, 0.0) == 0.0  # no provider

    system.latency_provider = PlainProvider()
    assert system.modelled_duration("w", "cost", 2.0, 5.0) == 6.0
    assert system.modelled_duration("w", "cost", 2.0, 5.0, inline=True) == 2.0
    assert system.modelled_duration("gone", "cost", 2.0, 5.0) == 0.0

    lanes = system.latency_provider = LaneProvider()
    # Only lanes still busy at the start instant count as occupancy.
    assert system.modelled_duration("w", "cost", 2.0, 5.0, (4.0, 7.0, 9.0)) == 2.0 * 3 * 3.0
    assert lanes.seen[-1] == (3, 5.0, (7.0, 9.0))
    assert system.modelled_duration("w", "cost", 2.0, 5.0, inline=True) == 2.0
    assert lanes.seen[-1] == (1, 5.0, ())


@pytest.mark.parametrize("provider", [PlainProvider, LaneProvider])
@pytest.mark.parametrize("backend", ["virtual", "wallclock"])
def test_straggler_stretches_deferred_calls_only(backend, provider):
    """Deferred calls are straggler-scaled on both engines, inline calls on
    neither — the one behaviour the three former copies disagreed about."""
    system = straggling(make_system(backend), factor=3.0)
    system.latency_provider = provider()
    handle = system.create_actor(Worker, name="w")
    base_s = 10.0  # 0.1 s real at FAST

    future = handle.submit("cost", base_s)
    system.drain()
    (event,) = system.timeline.events(component="w")
    assert future.result() == base_s
    if backend == "virtual":
        assert event.duration == pytest.approx(3.0 * base_s + system.rpc_latency_s)
    else:
        assert event.duration >= 3.0 * base_s * 0.95

    before_s = system.clock.now_s
    assert handle.call("cost", base_s) == base_s
    elapsed_s = system.clock.now_s - before_s
    if backend == "virtual":
        # The virtual clock gives an inline call no modelled duration at all.
        assert elapsed_s == pytest.approx(system.rpc_latency_s)
    else:
        assert base_s * 0.95 <= elapsed_s < 2.0 * base_s


def test_lane_ends_stay_sorted_where_they_are_booked():
    """Both engines keep an actor's lane ends ascending, so the busy lanes at
    an event's start are a suffix and the lane model never re-sorts them."""
    from dataclasses import replace

    from repro import MegaScaleData, TrainingJobSpec

    system = MegaScaleData.deploy(replace(TrainingJobSpec.text_example(), prefetch_depth=2))
    try:
        engine = system.system.engine
        seen = []
        plain = system.system.modelled_duration

        def recording(name, method, result, start_s, lane_ends_s=(), inline=False, chunk=0):
            seen.append(list(lane_ends_s))
            return plain(name, method, result, start_s, lane_ends_s, inline, chunk)

        system.system.modelled_duration = recording
        for _ in range(4):
            system.run_step()
        assert any(len(lanes) > 1 for lanes in seen)
        assert all(lanes == sorted(lanes) for lanes in seen)
        assert all(lanes == sorted(lanes) for lanes in engine._lanes_s.values())
    finally:
        system.shutdown()


def test_the_provider_protocol_is_read_when_the_provider_is_set():
    system = make_system("virtual")
    system.create_actor(Worker, name="w")
    lanes = system.latency_provider = LaneProvider()
    lanes.wants_lane_context = False  # read once, on assignment
    assert system.modelled_duration("w", "cost", 2.0, 5.0, (7.0,)) == 2.0 * 2
    assert lanes.seen[-1] == (2, 5.0, (7.0,))
