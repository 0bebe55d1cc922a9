"""Unit tests for the actor runtime: nodes, GCS, scheduler, actor system."""

from __future__ import annotations

import pytest

from repro.actors.actor import Actor, ActorState
from repro.actors.gcs import _MAX_NESTING, GlobalControlStore, _is_deeply_immutable
from repro.actors.node import Node, NodeKind, ResourceSpec
from repro.actors.runtime import ActorSystem, ClusterSpec
from repro.actors.scheduler import PlacementRequest, PlacementScheduler
from repro.chaos import ChaosEngine, FaultEvent, FaultPlan
from repro.errors import ActorDead, ActorError, ActorTimeout, SchedulingError
from repro.utils.units import GIB


class Counter(Actor):
    """Trivial actor used throughout the runtime tests."""

    role = "counter"

    def __init__(self, start: int = 0) -> None:
        super().__init__()
        self.value = start

    def increment(self, amount: int = 1) -> int:
        self.value += amount
        return self.value

    def allocate(self, n_bytes: int) -> None:
        self.ledger.charge("buffer", n_bytes)

    def state_dict(self) -> dict:
        return {"value": self.value}

    def load_state_dict(self, state: dict) -> None:
        self.value = state["value"]


class TestNode:
    def make_node(self):
        return Node("n0", NodeKind.ACCELERATOR, ResourceSpec(cpu_cores=8, memory_bytes=GIB))

    def test_reserve_and_release(self):
        node = self.make_node()
        node.reserve("a", 4, GIB // 2)
        assert node.available_cpu == 4
        node.release("a", 4, GIB // 2)
        assert node.available_cpu == 8

    def test_over_reservation_rejected(self):
        node = self.make_node()
        with pytest.raises(SchedulingError):
            node.reserve("a", 16, 0)

    def test_release_unknown_actor_is_noop(self):
        node = self.make_node()
        node.release("ghost", 4, 100)
        assert node.available_cpu == 8

    def test_utilization(self):
        node = self.make_node()
        node.reserve("a", 4, GIB // 2)
        util = node.utilization()
        assert util["cpu"] == pytest.approx(0.5)
        assert util["memory"] == pytest.approx(0.5)

    def test_negative_resources_rejected(self):
        with pytest.raises(SchedulingError):
            ResourceSpec(cpu_cores=-1, memory_bytes=10)

    def test_can_fit_needs_both_cpu_and_memory(self):
        node = self.make_node()
        node.reserve("a", 2, GIB // 2)
        assert node.can_fit(6, GIB // 2)
        assert not node.can_fit(7, 0)
        assert not node.can_fit(0, GIB // 2 + 1)
        assert node.available_memory == GIB // 2

    def test_peak_utilization_outlives_release(self):
        node = self.make_node()
        node.reserve("a", 6, GIB // 4)
        node.release("a", 6, GIB // 4)
        node.reserve("b", 2, GIB // 2)
        assert node.utilization()["cpu"] == pytest.approx(0.25)
        peak = node.peak_utilization()
        assert peak["cpu"] == pytest.approx(0.75)
        assert peak["memory"] == pytest.approx(0.5)

    def test_live_memory_bytes_reads_the_node_ledger(self):
        node = self.make_node()
        assert node.ledger.name == "node:n0"
        node.ledger.charge("buffer", 300)
        assert node.live_memory_bytes() == 300
        node.ledger.release("buffer", 100)
        assert node.live_memory_bytes() == 200


class TestGcs:
    def test_put_get_versioned(self):
        gcs = GlobalControlStore()
        assert gcs.put("k", {"a": 1}) == 1
        assert gcs.put("k", {"a": 2}) == 2
        assert gcs.get("k") == {"a": 2}
        assert gcs.version("k") == 2

    def test_get_returns_deep_copy(self):
        gcs = GlobalControlStore()
        gcs.put("k", {"a": [1]})
        value = gcs.get("k")
        value["a"].append(2)
        assert gcs.get("k") == {"a": [1]}

    def test_missing_key_default(self):
        assert GlobalControlStore().get("missing", 42) == 42

    def test_take_removes_the_key(self):
        gcs = GlobalControlStore()
        gcs.put("k", (1, 2))
        assert gcs.take("k") == (1, 2)
        assert gcs.keys() == []
        assert gcs.take("k") is None

    def test_immutability_check_stops_at_the_nesting_limit(self):
        nested = 1
        for _ in range(_MAX_NESTING):
            nested = (nested,)
        assert _is_deeply_immutable(nested, _MAX_NESTING)
        assert not _is_deeply_immutable((nested,), _MAX_NESTING)

    def test_keys_prefix(self):
        gcs = GlobalControlStore()
        gcs.put("plan/1", 1)
        gcs.put("plan/2", 2)
        gcs.put("other", 3)
        assert gcs.keys("plan/") == ["plan/1", "plan/2"]

    def test_actor_registry(self):
        gcs = GlobalControlStore()
        gcs.register_actor("b")
        gcs.register_actor("a")
        assert gcs.list_actors() == ["a", "b"]
        gcs.deregister_actor("a")
        gcs.deregister_actor("ghost")
        assert gcs.list_actors() == ["b"]

    def test_immutable_payload_stored_and_served_by_reference(self):
        gcs = GlobalControlStore()
        value = ("a", ("b", 1), frozenset({2}))
        gcs.put("k", value)
        assert gcs.get("k") is value

    def test_declared_immutable_skips_copies(self):
        gcs = GlobalControlStore()
        value = {"demands": (1, 2, 3)}
        gcs.put("k", value, immutable=True)
        stored = gcs.get("k")
        assert stored == value
        assert gcs.get("k") is stored  # served by reference, no per-read copy
        with pytest.raises(TypeError):
            stored["demands"] = ()  # readers cannot mutate versioned state
        value["extra"] = 1  # nor can the putter, after the fact
        assert "extra" not in gcs.get("k")

    def test_mutable_payload_isolated_from_caller_mutation(self):
        gcs = GlobalControlStore()
        value = {"a": [1]}
        gcs.put("k", value)
        value["a"].append(2)
        assert gcs.get("k") == {"a": [1]}


class TestScheduler:
    def make_scheduler(self):
        nodes = [
            Node("accel-0", NodeKind.ACCELERATOR, ResourceSpec(cpu_cores=8, memory_bytes=4 * GIB)),
            Node("cpu-0", NodeKind.CPU, ResourceSpec(cpu_cores=16, memory_bytes=8 * GIB)),
        ]
        return PlacementScheduler(nodes)

    def test_prefers_requested_kind(self):
        scheduler = self.make_scheduler()
        decision = scheduler.place(PlacementRequest("a", 2, GIB, prefer=NodeKind.ACCELERATOR))
        assert decision.node_name == "accel-0"
        assert not decision.spilled

    def test_spills_when_preferred_full(self):
        scheduler = self.make_scheduler()
        scheduler.place(PlacementRequest("a", 8, GIB, prefer=NodeKind.ACCELERATOR))
        decision = scheduler.place(PlacementRequest("b", 2, GIB, prefer=NodeKind.ACCELERATOR))
        assert decision.node_name == "cpu-0"
        assert decision.spilled

    def test_no_spill_when_disallowed(self):
        scheduler = self.make_scheduler()
        scheduler.place(PlacementRequest("a", 8, GIB, prefer=NodeKind.ACCELERATOR))
        with pytest.raises(SchedulingError):
            scheduler.place(
                PlacementRequest("b", 2, GIB, prefer=NodeKind.ACCELERATOR, allow_spill=False)
            )

    def test_needs_at_least_one_node(self):
        with pytest.raises(SchedulingError):
            PlacementScheduler([])

    def test_unknown_policy_rejected(self):
        node = Node("n", NodeKind.CPU, ResourceSpec(1, 1))
        with pytest.raises(SchedulingError):
            PlacementScheduler([node], policy="scatter")

    def two_accelerators(self, policy):
        nodes = [
            Node(f"accel-{i}", NodeKind.ACCELERATOR, ResourceSpec(cpu_cores=8, memory_bytes=4 * GIB))
            for i in range(2)
        ]
        return PlacementScheduler(nodes, policy=policy)

    def test_spread_policy_balances_nodes(self):
        scheduler = self.two_accelerators("spread")
        first = scheduler.place(PlacementRequest("a", 2, GIB))
        second = scheduler.place(PlacementRequest("b", 2, GIB))
        assert first.node_name != second.node_name

    def test_pack_policy_fills_the_fullest_feasible_node(self):
        scheduler = self.two_accelerators("pack")
        first = scheduler.place(PlacementRequest("a", 2, GIB))
        second = scheduler.place(PlacementRequest("b", 2, GIB))
        assert first.node_name == second.node_name
        # Once that node is full, pack moves on instead of failing.
        third = scheduler.place(PlacementRequest("c", 6, GIB))
        assert third.node_name != first.node_name

    def test_release_refunds_the_tenant(self):
        scheduler = self.make_scheduler()
        scheduler.register_tenant("t")
        decision = scheduler.place(PlacementRequest("a", 2, GIB, tenant="t"))
        assert scheduler.tenant_usage("t") == {
            "cpu_cores": 2.0, "memory_bytes": float(GIB), "actors": 1.0
        }
        scheduler.release("a", decision.node_name, 2, GIB, tenant="t")
        assert scheduler.tenant_usage("t") == {"cpu_cores": 0.0, "memory_bytes": 0.0, "actors": 0.0}
        assert scheduler.node(decision.node_name).available_cpu == 8

    def test_refund_of_unknown_tenant_or_actor_is_noop(self):
        scheduler = self.make_scheduler()
        scheduler.register_tenant("t")
        scheduler.place(PlacementRequest("a", 2, GIB, tenant="t"))
        scheduler.refund(None, "a")
        scheduler.refund("ghost-tenant", "a")
        scheduler.refund("t", "ghost-actor")
        assert scheduler.tenant_usage("t")["cpu_cores"] == 2.0

    def test_adjust_tenant_usage_rebooks_a_live_actor(self):
        scheduler = self.make_scheduler()
        scheduler.register_tenant("t")
        scheduler.place(PlacementRequest("a", 2, GIB, tenant="t"))
        scheduler.adjust_tenant_usage("t", "a", cpu_delta=3.0)
        assert scheduler.tenant_usage("t")["cpu_cores"] == 5.0
        assert scheduler.tenant_usage("t")["memory_bytes"] == float(GIB)
        # The refund returns the adjusted reservation, not the original one.
        scheduler.refund("t", "a")
        assert scheduler.tenant_usage("t")["cpu_cores"] == 0.0
        # An actor the tenant never placed is not booked by an adjustment.
        scheduler.adjust_tenant_usage("t", "ghost", cpu_delta=1.0)
        assert scheduler.tenant_usage("t")["actors"] == 0.0

    def test_rebook_restores_node_reservation_and_tenant_charge(self):
        scheduler = self.make_scheduler()
        scheduler.register_tenant("t")
        request = PlacementRequest("a", 2, GIB, tenant="t")
        decision = scheduler.place(request)
        scheduler.release("a", decision.node_name, 2, GIB, tenant="t")
        scheduler.rebook(request, decision.node_name)
        assert scheduler.node(decision.node_name).available_cpu == 6
        assert scheduler.tenant_usage("t")["cpu_cores"] == 2.0

    def test_peak_utilization_summary_keeps_a_released_peak(self):
        scheduler = self.make_scheduler()
        decision = scheduler.place(PlacementRequest("a", 6, 2 * GIB))
        scheduler.release("a", decision.node_name, 6, 2 * GIB)
        assert scheduler.cluster_utilization()["accel-0"]["cpu"] == 0.0
        assert scheduler.peak_cluster_utilization()["accel-0"]["cpu"] == pytest.approx(0.75)
        assert scheduler.peak_utilization_summary() == {
            "peak_node_cpu_utilization": pytest.approx(0.75),
            "peak_node_memory_utilization": pytest.approx(0.5),
        }


class TestActorSystem:
    def make_system(self):
        return ActorSystem(ClusterSpec(accelerator_nodes=1, cpu_pods=1))

    def test_create_and_call(self):
        system = self.make_system()
        handle = system.create_actor(lambda: Counter(10))
        assert handle.call("increment", 5) == 15
        assert handle.increment() == 16  # attribute-style call
        assert handle.state is ActorState.RUNNING

    def test_duplicate_name_rejected(self):
        system = self.make_system()
        system.create_actor(Counter, name="c")
        with pytest.raises(ActorError):
            system.create_actor(Counter, name="c")

    def test_unknown_method(self):
        system = self.make_system()
        handle = system.create_actor(Counter)
        with pytest.raises(ActorError):
            handle.call("explode")

    def test_kill_and_restart_with_state(self):
        system = self.make_system()
        handle = system.create_actor(lambda: Counter(0), name="c")
        handle.increment(7)
        state = handle.instance().state_dict()
        system.kill_actor("c")
        with pytest.raises(ActorDead):
            handle.increment()
        restarted = system.restart_actor("c", state=state)
        assert restarted.call("increment") == 8
        assert system.restart_count("c") == 1

    def test_failure_injection_timeout(self):
        system = self.make_system()
        handle = system.create_actor(Counter, name="c")
        blip = FaultEvent("gcs_blip", system.clock.now_s, target="c", duration_s=1.0)
        ChaosEngine(FaultPlan([blip])).attach(system)
        with pytest.raises(ActorTimeout):
            handle.increment()
        # The call failed before the body ran; after the window it succeeds.
        system.advance_clock(1.0)
        assert handle.increment() == 1

    def test_failure_injection_death(self):
        system = self.make_system()
        handle = system.create_actor(Counter, name="c")
        system.failures.fail("c")
        with pytest.raises(ActorDead):
            handle.increment()
        assert handle.state is ActorState.FAILED

    def test_memory_by_node_tracks_actor_ledger(self):
        system = self.make_system()
        handle = system.create_actor(Counter, name="c")
        handle.allocate(1000)
        node = system.actor_node("c")
        assert system.memory_by_node()[node] == 1000
        assert sum(system.memory_by_node().values()) == 1000

    def test_stop_actor_releases_resources_and_memory(self):
        system = self.make_system()
        handle = system.create_actor(Counter, name="c", cpu_cores=2.0, memory_bytes=GIB)
        handle.allocate(500)
        node_name = system.actor_node("c")
        system.stop_actor("c")
        assert system.memory_by_node()[node_name] == 0
        assert system.node(node_name).available_cpu == system.node(node_name).resources.cpu_cores

    def test_kill_releases_actor_memory(self):
        system = self.make_system()
        handle = system.create_actor(Counter, name="c")
        handle.allocate(2048)
        system.kill_actor("c")
        assert sum(system.memory_by_node().values()) == 0

    def test_list_actor_names_tracks_live_actors(self):
        system = self.make_system()
        system.create_actor(Counter, name="b")
        system.create_actor(Counter, name="a")
        assert system.list_actor_names() == ["a", "b"]
        system.stop_actor("a")
        assert system.list_actor_names() == ["b"]

    def test_call_log_and_clock(self):
        system = self.make_system()
        handle = system.create_actor(Counter, name="c")
        before = system.clock_s
        assert handle.increment() == 1
        assert system.clock_s > before
        assert system.actor_instance("c").value == 1

    def test_clock_cannot_go_backwards(self):
        system = self.make_system()
        with pytest.raises(ActorError):
            system.advance_clock(-1.0)

    def test_unknown_actor(self):
        system = self.make_system()
        with pytest.raises(ActorError):
            system.actor_state("ghost")

    def test_has_actor_and_role(self):
        system = self.make_system()
        system.create_actor(Counter, name="c")
        assert system.has_actor("c")
        assert not system.has_actor("ghost")
        assert system.actor_role("c") == "counter"
        assert system.actor_role("ghost") == "actor"
        system.stop_actor("c")
        assert not system.has_actor("c")


class TestCooperativeEventLoop:
    def make_system(self):
        return ActorSystem(ClusterSpec(accelerator_nodes=1, cpu_pods=1))

    def test_submit_defers_until_tick(self):
        system = self.make_system()
        handle = system.create_actor(Counter, name="c")
        future = handle.submit("increment", 5)
        assert not future.done()
        assert handle.instance().value == 0  # nothing executed yet
        assert system.tick() == 1
        assert future.done()
        assert future.result() == 5
        assert handle.instance().value == 5

    def test_pending_result_raises_until_completed(self):
        system = self.make_system()
        handle = system.create_actor(Counter, name="c")
        future = handle.submit("increment")
        with pytest.raises(ActorError):
            future.result()
        system.tick()
        assert future.result() == 1

    def test_fifo_completion_order_is_deterministic(self):
        system = self.make_system()
        handle = system.create_actor(Counter, name="c")
        futures = [handle.submit("increment", 1) for _ in range(4)]
        system.drain()
        # FIFO execution: results are the running counter values in order.
        assert [future.result() for future in futures] == [1, 2, 3, 4]
        assert system.pending_count() == 0

    def test_tick_respects_budget(self):
        system = self.make_system()
        handle = system.create_actor(Counter, name="c")
        for _ in range(3):
            handle.submit("increment")
        assert system.tick(max_calls=2) == 2
        assert system.pending_count() == 1
        assert system.tick(max_calls=5) == 1

    def test_failure_injected_after_submit_fails_the_future(self):
        system = self.make_system()
        handle = system.create_actor(Counter, name="c")
        future = handle.submit("increment")
        system.failures.fail("c")
        system.tick()
        assert isinstance(future.exception(), ActorDead)
        with pytest.raises(ActorDead):
            future.result()

    def test_cancelled_call_never_executes(self):
        system = self.make_system()
        handle = system.create_actor(Counter, name="c")
        future = handle.submit("increment")
        assert future.cancel()
        assert system.drain() == 0
        assert handle.instance().value == 0
        assert not future.cancel()  # already cancelled

    def test_cancel_pending_by_actor(self):
        system = self.make_system()
        a = system.create_actor(Counter, name="a")
        b = system.create_actor(Counter, name="b")
        fa = a.submit("increment")
        fb = b.submit("increment")
        assert system.cancel_pending("a") == 1
        system.drain()
        assert fa.cancelled()
        assert fb.result() == 1

    def test_submit_to_unknown_actor_rejected(self):
        system = self.make_system()
        with pytest.raises(ActorError):
            system.submit_call("ghost", "increment", (), {})


class TestVirtualClockEngine:
    def make_system(self):
        return ActorSystem(ClusterSpec(accelerator_nodes=1, cpu_pods=1))

    def test_durations_serialize_on_one_actor(self):
        system = self.make_system()
        handle = system.create_actor(Counter, name="c")
        first = handle.submit_timed("increment", duration_s=1.0)
        second = handle.submit_timed("increment", duration_s=2.0)
        system.drain()
        rpc = system.rpc_latency_s
        assert first.available_at_s == pytest.approx(1.0 + rpc)
        # The second call waits for the actor's busy window to end.
        assert second.available_at_s == pytest.approx(1.0 + 2.0 + 2 * rpc)
        assert system.actor_free_at_s("c") == pytest.approx(second.available_at_s)

    def test_independent_actors_overlap_in_virtual_time(self):
        system = self.make_system()
        a = system.create_actor(Counter, name="a")
        b = system.create_actor(Counter, name="b")
        fa = a.submit_timed("increment", duration_s=1.0)
        fb = b.submit_timed("increment", duration_s=1.0)
        system.drain()
        rpc = system.rpc_latency_s
        # Both ran in parallel: neither completion waited on the other.
        assert fa.available_at_s == pytest.approx(1.0 + rpc)
        assert fb.available_at_s == pytest.approx(1.0 + rpc)

    def test_earliest_start_defers_execution(self):
        system = self.make_system()
        handle = system.create_actor(Counter, name="c")
        future = handle.submit_timed("increment", duration_s=0.5, earliest_start_s=10.0)
        system.drain()
        assert future.available_at_s == pytest.approx(10.5 + system.rpc_latency_s)
        assert system.clock_s >= 10.0

    def test_events_execute_in_virtual_time_order(self):
        system = self.make_system()
        a = system.create_actor(Counter, name="a")
        b = system.create_actor(Counter, name="b")
        late = a.submit_timed("increment", 10, earliest_start_s=5.0)
        early = b.submit_timed("increment", 1, earliest_start_s=1.0)
        assert system.tick() == 1
        assert early.done() and not late.done()
        system.drain()
        assert late.done()

    def test_concurrency_lanes_overlap_busy_windows(self):
        system = self.make_system()
        serial = system.create_actor(Counter, name="serial")
        pooled = system.create_actor(Counter, name="pooled", concurrency=2)
        serial_futures = [serial.submit_timed("increment", duration_s=1.0) for _ in range(2)]
        pooled_futures = [pooled.submit_timed("increment", duration_s=1.0) for _ in range(2)]
        system.drain()
        rpc = system.rpc_latency_s
        assert serial_futures[1].available_at_s == pytest.approx(2.0 + 2 * rpc)
        # Two lanes: both pooled calls finish after ~one duration.
        assert pooled_futures[1].available_at_s == pytest.approx(1.0 + rpc)
        # State mutations still applied in strict FIFO order.
        assert [f.result() for f in pooled_futures] == [1, 2]

    def test_invalid_concurrency_rejected(self):
        system = self.make_system()
        with pytest.raises(ActorError):
            system.create_actor(Counter, name="c", concurrency=0)

    def test_timeline_records_events_with_step_tags(self):
        system = self.make_system()
        handle = system.create_actor(Counter, name="c")
        handle.submit_timed("increment", duration_s=0.25, step_tag=7)
        system.drain()
        events = system.timeline.events(component="c", name="increment")
        assert len(events) == 1
        assert events[0].metadata["step"] == 7
        assert events[0].metadata["role"] == "counter"
        assert events[0].duration == pytest.approx(0.25 + system.rpc_latency_s)

    def test_latency_provider_derives_durations(self):
        class DoubleProvider:
            def call_duration_s(self, actor, method, result):
                return float(result) * 0.1

        system = self.make_system()
        system.latency_provider = DoubleProvider()
        handle = system.create_actor(Counter, name="c")
        future = handle.submit("increment", 5)
        system.drain()
        # increment returned 5 -> duration 0.5s via the provider.
        assert future.available_at_s == pytest.approx(0.5 + system.rpc_latency_s)

    def test_explicit_duration_overrides_provider(self):
        class LoudProvider:
            def call_duration_s(self, actor, method, result):  # pragma: no cover
                raise AssertionError("provider must not be consulted")

        system = self.make_system()
        system.latency_provider = LoudProvider()
        handle = system.create_actor(Counter, name="c")
        future = handle.submit_timed("increment", duration_s=0.125)
        system.drain()
        assert future.available_at_s == pytest.approx(0.125 + system.rpc_latency_s)

    def test_failed_call_leaves_lane_free(self):
        system = self.make_system()
        handle = system.create_actor(Counter, name="c")
        future = handle.submit_timed("increment", duration_s=5.0)
        system.failures.fail("c")
        system.drain()
        assert future.exception() is not None
        assert system.actor_free_at_s("c") == 0.0
