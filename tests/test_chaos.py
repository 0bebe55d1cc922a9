"""Unit tests for the chaos subsystem: plans, the engine, retry policies,
failure domains and the degraded-mode plumbing they drive."""

from __future__ import annotations

import pytest

from repro.actors.actor import ActorState
from repro.actors.node import NodeKind
from repro.actors.runtime import ActorSystem, ClusterSpec
from repro.actors.scheduler import PlacementRequest, PlacementScheduler
from repro.chaos import ChaosEngine, FaultEvent, FaultPlan
from repro.core.checkpoint import InMemoryCheckpointStore
from repro.core.dgraph import expected_quotas
from repro.core.fault_tolerance import (
    BREAKER_THRESHOLD,
    EVENTS_LIMIT,
    RETRY_JITTER,
    FaultToleranceManager,
    RecoveryEvent,
    RetryPolicy,
)
from repro.core.framework import MegaScaleData, TrainingJobSpec
from repro.core.source_loader import SourceLoader
from repro.errors import (
    ActorDead,
    ActorTimeout,
    ConfigurationError,
    StorageError,
)
from repro.utils.units import GIB


# -- fault plans -------------------------------------------------------------------------


class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultEvent("meteor_strike", 1.0)

    def test_windowed_kinds_need_duration(self):
        with pytest.raises(ConfigurationError):
            FaultEvent("gcs_blip", 1.0, target="planner")

    def test_straggler_needs_slowdown(self):
        with pytest.raises(ConfigurationError):
            FaultEvent("straggler", 1.0, target="loader", duration_s=5.0, factor=1.0)

    def test_crashes_need_targets(self):
        with pytest.raises(ConfigurationError):
            FaultEvent("node_crash", 1.0)

    def test_events_sorted_and_horizon(self):
        plan = FaultPlan([
            FaultEvent("store_outage", 50.0, duration_s=30.0),
            FaultEvent("actor_crash", 10.0, target="a"),
        ])
        assert [e.kind for e in plan.events] == ["actor_crash", "store_outage"]
        assert plan.horizon_s() == 80.0
        assert plan.describe()["counts"] == {"actor_crash": 1, "store_outage": 1}

    def test_random_storm_deterministic(self):
        kwargs = dict(
            horizon_s=1000.0,
            actors=["planner", "loader-0"],
            nodes=["cpu-pod-0"],
            sources=["src-a"],
            roles=["source_loader"],
            num_events=8,
        )
        assert FaultPlan.random_storm(3, **kwargs).events == FaultPlan.random_storm(
            3, **kwargs
        ).events
        assert FaultPlan.random_storm(3, **kwargs).events != FaultPlan.random_storm(
            4, **kwargs
        ).events

    def test_random_storm_stays_inside_horizon(self):
        for seed in range(8):
            storm = FaultPlan.random_storm(
                seed, horizon_s=100.0, actors=["a"], sources=["s"], num_events=6
            )
            assert len(storm.events) == 6
            for event in storm.events:
                assert 10.0 <= event.at_s <= 85.0
                assert event.end_s <= 100.0


# -- chaos engine ------------------------------------------------------------------------


def _loader_system(catalog, filesystem):
    system = ActorSystem(ClusterSpec(accelerator_nodes=1, cpu_pods=1))
    source = catalog.sources()[0]
    handle = system.create_actor(
        lambda: SourceLoader(source, filesystem, buffer_size=8),
        name="chaos-loader",
        memory_bytes=GIB,
    )
    return system, handle, source


class TestChaosEngine:
    def test_one_shot_crash_fires_once(self, small_catalog, filesystem):
        system, handle, _ = _loader_system(small_catalog, filesystem)
        engine = ChaosEngine(
            FaultPlan([FaultEvent("actor_crash", 5.0, target="chaos-loader")])
        ).attach(system)
        system.clock.advance(10.0)
        with pytest.raises(ActorDead):
            handle.call("buffer_depth")
        assert engine.summary()["counts"] == {"actor_crash": 1}
        # The one-shot does not re-fire on later invocations.
        system.restart_actor("chaos-loader")
        handle.call("buffer_depth")
        assert engine.summary()["counts"] == {"actor_crash": 1}

    def test_windowed_blackout_is_lazy(self, small_catalog, filesystem):
        system, handle, source = _loader_system(small_catalog, filesystem)
        engine = ChaosEngine(
            FaultPlan([
                FaultEvent(
                    "source_blackout", 10.0, target=source.name, duration_s=5.0
                )
            ])
        ).attach(system)
        # Before the window: calls pass and the fault has not "fired".
        handle.call("buffer_depth")
        assert engine.summary()["counts"] == {}
        # Inside the window: calls to the source's loader are vetoed, and
        # only now does the fault count as fired.
        system.clock.advance(12.0)
        with pytest.raises(ActorTimeout):
            handle.call("buffer_depth")
        assert engine.summary()["counts"] == {"source_blackout": 1}
        assert engine.blackout_active(source.name)
        # Past the window: the loader answers again (it was alive all along).
        system.clock.advance(10.0)
        handle.call("buffer_depth")
        assert not engine.blackout_active(source.name)

    def test_store_outage_wraps_checkpoint_store(self, small_catalog, filesystem):
        system, _, _ = _loader_system(small_catalog, filesystem)
        engine = ChaosEngine(
            FaultPlan([FaultEvent("store_outage", 10.0, duration_s=5.0)])
        ).attach(system)
        store = engine.wrap_store(InMemoryCheckpointStore())
        store.save("ns", 1, {"x": 1})
        system.clock.advance(12.0)
        with pytest.raises(StorageError):
            store.save("ns", 2, {"x": 2})
        with pytest.raises(StorageError):
            store.load("ns", 1)
        # Read-only metadata keeps working so recovery bookkeeping survives.
        assert store.steps("ns") == [1]
        system.clock.advance(10.0)
        assert store.load("ns", 1) == {"x": 1}


# -- injected failure between submission and execution -----------------------------------


class TestFailAfterSubmission:
    def test_virtual_backend(self, small_catalog, filesystem):
        system, handle, _ = _loader_system(small_catalog, filesystem)
        future = handle.submit("buffer_depth")
        system.failures.fail(handle.name)
        while not future.done():
            if system.tick() == 0:
                break
        assert isinstance(future.exception(), ActorDead)

    def test_wallclock_backend(self, small_catalog, filesystem):
        system = ActorSystem(
            ClusterSpec(accelerator_nodes=1, cpu_pods=1), backend="wallclock"
        )
        source = small_catalog.sources()[0]
        handle = system.create_actor(
            lambda: SourceLoader(source, filesystem, buffer_size=8),
            name="chaos-loader",
            memory_bytes=GIB,
        )
        try:
            # Occupy the lane with a modelled busy window so the second call
            # is still queued when the failure lands.
            first = handle.submit_timed("buffer_depth", duration_s=0.2)
            second = handle.submit("buffer_depth")
            system.failures.fail(handle.name)
            for future in (first, second):
                while not future.done():
                    if system.tick() == 0:
                        break
            assert isinstance(second.exception(), ActorDead)
        finally:
            system.stop_actor("chaos-loader")


# -- failure domains ---------------------------------------------------------------------


def _request(name: str, **overrides) -> PlacementRequest:
    kwargs = dict(
        actor_name=name, cpu_cores=1.0, memory_bytes=GIB, prefer=NodeKind.CPU
    )
    kwargs.update(overrides)
    return PlacementRequest(**kwargs)


class TestFailureDomains:
    def test_anti_affinity_separates(self):
        nodes = ClusterSpec(accelerator_nodes=0, cpu_pods=2).build_nodes()
        scheduler = PlacementScheduler(nodes)
        primary = scheduler.place(_request("primary"))
        shadow = scheduler.place(
            _request("shadow", anti_affinity=primary.node_name)
        )
        assert shadow.node_name != primary.node_name
        assert not shadow.colocated

    def test_anti_affinity_colocates_on_single_node(self):
        nodes = ClusterSpec(accelerator_nodes=0, cpu_pods=1).build_nodes()
        scheduler = PlacementScheduler(nodes)
        primary = scheduler.place(_request("primary"))
        shadow = scheduler.place(
            _request("shadow", anti_affinity=primary.node_name)
        )
        assert shadow.node_name == primary.node_name
        assert shadow.colocated

    def test_crash_node_releases_reservations(self, small_catalog, filesystem):
        system, handle, _ = _loader_system(small_catalog, filesystem)
        node = system.scheduler.node(system.actor_node(handle.name))
        reserved = node.reserved_cpu
        assert reserved > 0
        victims = system.crash_node(node.name)
        assert handle.name in victims
        assert system.actor_state(handle.name) is ActorState.FAILED
        assert node.reserved_cpu < reserved
        # Restarting in place re-books the released reservation.
        system.restart_actor(handle.name)
        assert node.reserved_cpu == reserved

    def test_deployed_shadows_live_on_other_nodes(self, tmp_path):
        job = TrainingJobSpec(
            pp=1, dp=2, cp=1, tp=1, encoder=None, strategy="backbone_balance",
            samples_per_dp_step=8, num_microbatches=2, num_sources=2,
            samples_per_source=64, seed=5, cpu_pods=2,
            enable_shadow_loaders=True,
        )
        fw = MegaScaleData.deploy(job)
        try:
            pairs = 0
            for handle in fw.loader_handles:
                shadow = fw.fault_manager.shadow_for(handle.name)
                if shadow is None:
                    continue
                pairs += 1
                assert fw.system.actor_node(shadow.name) != fw.system.actor_node(
                    handle.name
                )
            assert pairs > 0
        finally:
            fw.shutdown()


# -- retry policies and the recovery log -------------------------------------------------


class TestRetryPolicies:
    def test_delays_deterministic_and_bounded(self):
        policy = RetryPolicy(0.1, 1.0)
        delays = [policy.delay_s(attempt, key="probe") for attempt in range(1, 8)]
        assert delays == [policy.delay_s(a, key="probe") for a in range(1, 8)]
        assert all(d <= 1.0 * (1 + RETRY_JITTER) for d in delays)
        # Different jitter keys decorrelate retry timelines.
        assert delays != [policy.delay_s(a, key="other") for a in range(1, 8)]

    def test_call_with_retry_waits_out_transient(self, small_catalog, filesystem):
        system, _, _ = _loader_system(small_catalog, filesystem)
        manager = FaultToleranceManager(system)
        attempts = []

        def flaky():
            attempts.append(system.clock.now_s)
            if len(attempts) < 3:
                raise ActorTimeout("transient")
            return "ok"

        assert manager.call_with_retry("planner", "gather", flaky) == "ok"
        assert len(attempts) == 3
        # Backoff sleeps advanced the shared clock between attempts.
        assert attempts == sorted(attempts) and attempts[0] < attempts[-1]

    def test_open_breaker_short_circuits(self, small_catalog, filesystem):
        system, _, _ = _loader_system(small_catalog, filesystem)
        manager = FaultToleranceManager(system)
        failures = []

        def always_dark():
            failures.append(1)
            raise ActorTimeout("dark")

        with pytest.raises(ActorTimeout):
            manager.call_with_retry("loader", "poll", always_dark, actor="victim")
        # The breaker opened on the threshold-th consecutive failure.
        assert len(failures) == BREAKER_THRESHOLD
        assert manager.breaker.is_open("victim")
        calls = []

        def counted():
            calls.append(1)
            raise ActorTimeout("dark")

        # The open breaker re-raises on the first failure instead of
        # burning the whole backoff budget.
        with pytest.raises(ActorTimeout):
            manager.call_with_retry("loader", "poll", counted, actor="victim")
        assert len(calls) == 1

    def test_recovery_log_ring_buffer(self, small_catalog, filesystem):
        system, _, _ = _loader_system(small_catalog, filesystem)
        manager = FaultToleranceManager(system)
        appended = EVENTS_LIMIT + 4
        for step in range(appended):
            manager._append_event(
                RecoveryEvent(
                    step=step, component="loader", kind="restart",
                    recovery_latency_s=1.0,
                )
            )
        assert len(manager.events()) == EVENTS_LIMIT
        assert [event.step for event in manager.events()] == list(range(4, appended))
        summary = manager.recovery_summary()
        # Aggregates stay exact past ring eviction.
        assert summary["total_events"] == appended
        assert summary["retained_events"] == EVENTS_LIMIT
        assert summary["by_kind"]["restart"]["count"] == appended
        assert summary["total_latency_s"] == pytest.approx(float(appended))


# -- degraded-mode arithmetic ------------------------------------------------------------


class TestQuotaArithmetic:
    def test_expected_quotas_sum_to_target(self):
        weights = {"a": 0.4, "b": 0.35, "c": 0.25}
        quotas = expected_quotas(weights, 16)
        assert sum(quotas.values()) == 16
        assert quotas == expected_quotas(weights, 16)

    def test_expected_quotas_drop_nonpositive(self):
        quotas = expected_quotas({"a": 0.5, "b": 0.5, "dark": 0.0}, 10)
        assert quotas["dark"] == 0
        assert sum(quotas.values()) == 10


# -- job knobs ---------------------------------------------------------------------------


class TestJobKnobs:
    def test_degraded_mode_validated(self):
        with pytest.raises(ConfigurationError):
            TrainingJobSpec(
                pp=1, dp=1, cp=1, tp=1, encoder=None,
                samples_per_dp_step=4, num_microbatches=1,
                degraded_mode="shrug",
            )
