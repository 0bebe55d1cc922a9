"""Unit tests for fault tolerance: shadow loaders, checkpoints, recovery."""

from __future__ import annotations

import pytest

from repro.actors.actor import ActorState
from repro.actors.runtime import ActorSystem, ClusterSpec
from repro.chaos import ChaosEngine, FaultEvent, FaultPlan
from repro.core.fault_tolerance import (
    BREAKER_THRESHOLD,
    CircuitBreaker,
    FaultToleranceError,
    FaultToleranceManager,
)
from repro.core.place_tree import ClientPlaceTree
from repro.core.planner import Planner
from repro.core.source_loader import SourceLoader
from repro.core.strategies import StrategyConfig, backbone_balance_strategy
from repro.utils.units import GIB


@pytest.fixture()
def system():
    return ActorSystem(ClusterSpec(accelerator_nodes=1, cpu_pods=1))


@pytest.fixture()
def manager(system):
    return FaultToleranceManager(system, loader_checkpoint_interval=5)


def spawn_pair(system, manager, catalog, filesystem, index=0):
    source = catalog.sources()[index]
    primary = system.create_actor(
        lambda: SourceLoader(source, filesystem, buffer_size=8),
        name=f"primary-{index}",
        memory_bytes=GIB,
    )
    shadow = system.create_actor(
        lambda: SourceLoader(source, filesystem, buffer_size=8),
        name=f"shadow-{index}",
        memory_bytes=GIB,
    )
    manager.register_shadow(primary, shadow)
    return primary, shadow


def shard_of(handle) -> tuple[str, int, int]:
    """The shard a live loader serves, the key its checkpoints are kept under."""
    loader = handle.instance()
    return loader.source.name, loader.shard_index, loader.shard_count


class TestDetection:
    def test_healthy_loader_probe(self, system, manager, small_catalog, filesystem):
        primary, _ = spawn_pair(system, manager, small_catalog, filesystem)
        assert manager.probe_loader(primary)
        assert manager.detect_failures([primary]) == []

    def test_dead_loader_detected(self, system, manager, small_catalog, filesystem):
        primary, _ = spawn_pair(system, manager, small_catalog, filesystem)
        system.failures.fail(primary.name)
        assert not manager.probe_loader(primary)
        assert manager.detect_failures([primary]) == [primary]

    def test_timeout_detected(self, system, manager, small_catalog, filesystem):
        primary, _ = spawn_pair(system, manager, small_catalog, filesystem)
        blip = FaultEvent("gcs_blip", system.clock.now_s, target=primary.name, duration_s=1.0)
        ChaosEngine(FaultPlan([blip])).attach(system)
        assert manager.detect_failures([primary]) == [primary]
        # Alive but unreachable: once the window passes, the probe succeeds.
        system.advance_clock(1.0)
        assert manager.detect_failures([primary]) == []

    @pytest.mark.parametrize(
        "name",
        [
            "rpc_timeout_s",
            "retry_budgets",
            "shadow_promotion_latency_s",
            "coordinator_restart_latency_s",
            "replay_latency_per_step_s",
            "retry",
            "wait",
            "breaker_threshold",
            "degraded_wait_attempts",
            "events_limit",
            "config",
        ],
    )
    def test_recovery_latencies_and_retry_budgets_are_not_knobs(self, system, name):
        """The checkpoint interval is the manager's one setting: no engine
        bounds a call by a timeout, and the latencies, retry and wait-out
        policies, breaker threshold and event ring are module constants."""
        with pytest.raises(TypeError, match=name):
            FaultToleranceManager(system, **{name: 1})

    def test_breaker_opens_on_the_threshold_failure_and_success_closes_it(self):
        breaker = CircuitBreaker()
        for _ in range(BREAKER_THRESHOLD - 1):
            breaker.record_failure("a")
        assert not breaker.is_open("a")
        breaker.record_failure("a")
        assert breaker.is_open("a")
        assert not breaker.is_open("b")
        breaker.record_success("a")
        assert not breaker.is_open("a")
        # The streak restarts from zero after a success.
        breaker.record_failure("a")
        assert not breaker.is_open("a")


class TestCheckpointing:
    def test_checkpoint_written_on_interval(self, system, manager, small_catalog, filesystem):
        primary, _ = spawn_pair(system, manager, small_catalog, filesystem)
        assert manager.checkpoint_loaders([primary], 0) == 1
        assert manager.checkpoint_loaders([primary], 3) == 0
        assert manager.checkpoint_loaders([primary], 5) == 1
        checkpoint = manager.shard_checkpoint(shard_of(primary), 5)
        assert checkpoint["step"] == 5
        assert manager.shard_checkpoint(shard_of(primary), 4)["step"] == 0

    def test_checkpoint_requires_loader(self, system, manager):
        from repro.actors.actor import Actor

        other = system.create_actor(Actor, name="not-a-loader")
        with pytest.raises(FaultToleranceError):
            manager.checkpoint_loaders([other], 0)


class TestRecovery:
    def test_shadow_promotion(self, system, manager, small_catalog, filesystem):
        primary, shadow = spawn_pair(system, manager, small_catalog, filesystem)
        manager.checkpoint_loaders([primary], 0)
        shard = shard_of(primary)
        system.kill_actor(primary.name)
        promoted = manager.recover_loader(primary, 7, shard)
        assert promoted.name == shadow.name
        events = manager.events()
        assert events[-1].kind == "shadow_promotion"
        assert events[-1].recovery_latency_s > 0
        assert manager.shadow_for(primary.name) is None

    def test_restart_without_shadow(self, system, small_catalog, filesystem):
        manager = FaultToleranceManager(system)
        source = small_catalog.sources()[0]
        handle = system.create_actor(
            lambda: SourceLoader(source, filesystem, buffer_size=8),
            name="solo-loader",
            memory_bytes=GIB,
        )
        manager.checkpoint_loaders([handle], 0)
        shard = shard_of(handle)
        system.kill_actor(handle.name)
        recovered = manager.recover_loader(handle, 10, shard)
        assert recovered.state is ActorState.RUNNING
        assert manager.events()[-1].kind == "restart"

    def test_replay_gap_adds_latency(self, system, manager, small_catalog, filesystem):
        primary, _ = spawn_pair(system, manager, small_catalog, filesystem)
        manager.checkpoint_loaders([primary], 0)
        shard = shard_of(primary)
        system.kill_actor(primary.name)
        manager.recover_loader(primary, 100, shard)
        long_gap = manager.events()[-1].recovery_latency_s

        primary2, _ = spawn_pair(system, manager, small_catalog, filesystem, index=1)
        manager.checkpoint_loaders([primary2], 0)
        shard2 = shard_of(primary2)
        system.kill_actor(primary2.name)
        manager.recover_loader(primary2, 1, shard2)
        short_gap = manager.events()[-1].recovery_latency_s
        assert long_gap > short_gap

    def test_coordinator_restart_preserves_state(
        self, system, manager, small_catalog, filesystem, dp_mesh
    ):
        """A restarted Planner resumes at its position with its plan history,
        which a fresh instance from the same factory would not have."""
        loaders = [
            system.create_actor(
                lambda src=source: SourceLoader(src, filesystem, buffer_size=16),
                name=f"loader-{index}",
                memory_bytes=GIB,
            )
            for index, source in enumerate(small_catalog.sources()[:2])
        ]
        planner = system.create_actor(
            lambda: Planner(
                strategy=backbone_balance_strategy(StrategyConfig(num_microbatches=2)),
                tree=ClientPlaceTree(dp_mesh),
            ),
            name="planner",
            memory_bytes=GIB,
        )
        planner.instance().register_loaders(loaders)
        for _ in range(3):
            planner.call("generate_plan")
        before = planner.instance()
        history = before.plans_since(-1)
        recovered = manager.recover_coordinator(planner, step=3)
        after = recovered.instance()
        assert after is not before
        assert after.heartbeat_payload() == {"step": 3, "plans": 3}
        assert after.plans_since(-1) == history
        assert [record.step for record in history] == [0, 1, 2]
        assert system.actor_state(recovered.name) is ActorState.RUNNING
        assert manager.events()[-1].kind == "coordinator_restart"

    def test_total_recovery_latency_sums_every_event(
        self, system, manager, small_catalog, filesystem
    ):
        assert manager.total_recovery_latency() == 0.0
        for index in range(2):
            primary, _ = spawn_pair(system, manager, small_catalog, filesystem, index=index)
            manager.checkpoint_loaders([primary], 0)
            shard = shard_of(primary)
            system.kill_actor(primary.name)
            manager.recover_loader(primary, 4, shard)
        latencies = [event.recovery_latency_s for event in manager.events()]
        assert len(latencies) == 2
        assert manager.total_recovery_latency() == pytest.approx(sum(latencies))
        assert manager.recovery_summary()["total_latency_s"] == manager.total_recovery_latency()

    def test_shadow_memory_accounted(self, system, manager, small_catalog, filesystem):
        spawn_pair(system, manager, small_catalog, filesystem)
        assert manager.shadow_count() == 1
        assert manager.shadow_memory_bytes() > 0
