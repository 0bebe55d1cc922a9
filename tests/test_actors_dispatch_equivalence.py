"""Equivalence tests for the virtual engine's heap dispatcher.

The heap must execute the *exact* same ``(start, seq, actor, method)``
sequence as :func:`scan_pop`, an oracle that scans every actor's queue head
for the smallest ``(start, seq)``, for any workload: randomized submissions
with causal dependencies and explicit durations, multi-lane actors, mid-run
cancellations (both per-future and per-actor) and nested submissions/calls
issued from inside executing events.  On top of the property test, a full
prefetching data-plane run is replayed with the oracle in place of the heap
and must deliver byte-identical batches on an identical virtual clock.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.actors.actor import Actor
from repro.actors.runtime import ActorSystem, ClusterSpec
from repro.core.framework import MegaScaleData, TrainingJobSpec
from repro.errors import ActorError

NUM_ACTORS = 4


def make_system() -> ActorSystem:
    return ActorSystem(ClusterSpec(accelerator_nodes=1, cpu_pods=1))


class Probe(Actor):
    """Test actor that can submit further work from inside an event."""

    role = "probe"

    def __init__(self) -> None:
        super().__init__()
        self.system: ActorSystem | None = None
        self.log: list[int] = []

    def work(self, token: int) -> int:
        self.log.append(token)
        return token

    def spawn(self, token: int, target: str) -> int:
        """Nested *deferred* submission while this event executes."""
        self.log.append(token)
        self.system.submit_call(target, "work", (token + 10_000,), {})
        return token

    def relay(self, token: int, target: str) -> int:
        """Nested *synchronous* call, advancing the clock mid-event."""
        self.log.append(token)
        return self.system.call_actor(target, "work", (token + 20_000,), {})


# -- the oracle -----------------------------------------------------------------


def scan_pop(engine):
    """Pop the queue head with the smallest ``(start, seq)``, scanning every queue.

    ``start`` is the later of the call's ready instant and its actor's
    earliest-free lane; cancelled heads are dropped on the way.
    """
    best = best_key = None
    for name, queue in engine._queues.items():
        while queue and queue[0].future.cancelled():
            queue.popleft()
        if not queue:
            continue
        head = queue[0]
        lanes = engine._lanes_s.get(name)
        key = (max(head.ready_at_s, min(lanes) if lanes else 0.0), head.seq)
        if best_key is None or key < best_key:
            best, best_key = head, key
    if best is not None:
        engine._queues[best.name].popleft()
    return best


def scan_dispatch(system: ActorSystem) -> ActorSystem:
    """Make ``system`` dispatch through :func:`scan_pop` instead of its heap."""
    system.engine._pop_next = lambda: scan_pop(system.engine)
    return system


# -- workload scripts -----------------------------------------------------------

actor_idx = st.integers(min_value=0, max_value=NUM_ACTORS - 1)
ready_at = st.sampled_from([None, 0.0, 0.5, 2.0, 2.0, 7.5])
duration = st.sampled_from([None, 0.0, 0.25, 1.0])

script_ops = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), actor_idx, ready_at, duration),
        st.tuples(st.just("nested"), actor_idx, actor_idx),
        st.tuples(st.just("relay"), actor_idx, actor_idx),
        st.tuples(st.just("tick"), st.integers(min_value=1, max_value=4)),
        st.tuples(st.just("cancel_future"), st.integers(min_value=0, max_value=63)),
        st.tuples(st.just("cancel_actor"), actor_idx),
    ),
    min_size=1,
    max_size=40,
)


def run_script(system: ActorSystem, concurrencies: list[int], ops: list[tuple]) -> tuple:
    """Replay one workload script on ``system``; returns every observable of the run."""
    system.dispatch_trace = []
    names = []
    for index in range(NUM_ACTORS):
        name = f"probe-{index}"
        system.create_actor(
            Probe,
            name=name,
            cpu_cores=0.25,
            memory_bytes=1024,
            concurrency=concurrencies[index],
        )
        system.actor_instance(name).system = system
        names.append(name)

    futures = []
    token = 0
    for op in ops:
        kind = op[0]
        if kind == "submit":
            _, index, ready, dur = op
            token += 1
            futures.append(
                system.submit_call(
                    names[index], "work", (token,), {},
                    duration_s=dur, earliest_start_s=ready,
                )
            )
        elif kind == "nested":
            _, index, target = op
            token += 1
            futures.append(
                system.submit_call(names[index], "spawn", (token, names[target]), {})
            )
        elif kind == "relay":
            _, index, target = op
            token += 1
            futures.append(
                system.submit_call(names[index], "relay", (token, names[target]), {})
            )
        elif kind == "tick":
            system.tick(op[1])
        elif kind == "cancel_future":
            if futures:
                futures[op[1] % len(futures)].cancel()
        elif kind == "cancel_actor":
            system.cancel_pending(names[op[1]])
    system.drain()

    logs = [list(system.actor_instance(name).log) for name in names]
    future_sig = [(future.state.value, future.available_at_s) for future in futures]
    events = [
        (event.component, event.name, event.start, event.duration)
        for event in system.timeline.events()
    ]
    return system.dispatch_trace, logs, future_sig, events, system.clock_s


@given(
    concurrencies=st.lists(
        st.integers(min_value=1, max_value=3), min_size=NUM_ACTORS, max_size=NUM_ACTORS
    ),
    ops=script_ops,
)
@settings(max_examples=120, deadline=None)
def test_heap_dispatch_order_matches_the_scan_oracle(concurrencies, ops):
    """Byte-identical dispatch: same (start, seq, actor, method) sequence."""
    reference = run_script(scan_dispatch(make_system()), concurrencies, ops)
    indexed = run_script(make_system(), concurrencies, ops)
    assert indexed[0] == reference[0]  # dispatch trace, exact floats included
    assert indexed[1] == reference[1]  # per-actor execution logs
    assert indexed[2] == reference[2]  # future states and completion instants
    assert indexed[3] == reference[3]  # recorded timeline events
    assert indexed[4] == reference[4]  # final virtual clock


# -- engine unit behaviour -------------------------------------------------------


class TestIndexedDispatcher:
    def test_stopped_actor_entries_are_discarded(self):
        system = make_system()
        keep = system.create_actor(Probe, name="keep")
        gone = system.create_actor(Probe, name="gone")
        kept = keep.submit("work", 1)
        doomed = gone.submit("work", 2)
        system.stop_actor("gone")
        assert isinstance(doomed.exception(), ActorError)
        assert system.drain() == 1
        assert kept.result() == 1

    def test_cancel_then_resubmit_keeps_order(self):
        system = make_system()
        handle = system.create_actor(Probe, name="p")
        first = handle.submit("work", 1)
        first.cancel()
        second = handle.submit("work", 2)
        third = handle.submit("work", 3)
        assert system.drain() == 2
        assert second.result() == 2 and third.result() == 3
        assert system.actor_instance("p").log == [2, 3]

    def test_unbounded_tick_drains_nested_submissions(self):
        system = make_system()
        a = system.create_actor(Probe, name="a")
        system.create_actor(Probe, name="b")
        for instance in ("a", "b"):
            system.actor_instance(instance).system = system
        a.submit("spawn", 5, "b")
        assert system.tick(max_calls=None) == 2
        assert system.actor_instance("b").log == [10_005]

    def test_a_drained_engine_holds_no_heap_entries(self):
        system = make_system()
        handle = system.create_actor(Probe, name="p")
        for token in range(10):
            handle.submit("work", token)
            handle.submit("work", token).cancel()
            system.drain()
        assert system.engine._heap == []
        assert system.engine._heap_entries == {}


# -- full data-plane regression ---------------------------------------------------


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


def _deploy(depth: int) -> MegaScaleData:
    job = TrainingJobSpec(
        pp=1, dp=2, cp=1, tp=1, encoder=None, strategy="backbone_balance",
        samples_per_dp_step=4, num_microbatches=2, num_sources=3,
        samples_per_source=48, seed=11, prefetch_depth=depth,
    )
    return MegaScaleData.deploy(job)


@pytest.mark.parametrize("depth", [1, 2])
def test_prefetch_pipeline_byte_identical_under_the_scan_oracle(depth):
    """The heap changes dispatch cost, never what is delivered."""
    reference = _deploy(depth)
    scan_dispatch(reference.system)
    indexed = _deploy(depth)
    try:
        for _ in range(4):
            a = reference.run_step(simulate=True)
            b = indexed.run_step(simulate=True)
            assert a.step == b.step
            assert a.plan.source_demands == b.plan.source_demands
            assert _delivery_bytes(a) == _delivery_bytes(b)
            assert a.data_stall_s == b.data_stall_s
            assert a.hidden_fetch_s == b.hidden_fetch_s
        assert reference.system.clock_s == indexed.system.clock_s
        ref_ledger = [
            (entry.step, entry.fetch_s, entry.hidden_s, entry.stall_s)
            for entry in reference.overlap._records
        ]
        idx_ledger = [
            (entry.step, entry.fetch_s, entry.hidden_s, entry.stall_s)
            for entry in indexed.overlap._records
        ]
        assert ref_ledger == idx_ledger
    finally:
        reference.shutdown()
        indexed.shutdown()

