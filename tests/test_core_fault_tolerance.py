"""Unit tests for fault tolerance: shadow loaders, checkpoints, recovery."""

from __future__ import annotations

import pytest

from repro.actors.actor import ActorState
from repro.actors.runtime import ActorSystem, ClusterSpec
from repro.core.fault_tolerance import (
    FaultToleranceConfig,
    FaultToleranceError,
    FaultToleranceManager,
)
from repro.core.source_loader import SourceLoader
from repro.utils.units import GIB


@pytest.fixture()
def system():
    return ActorSystem(ClusterSpec(accelerator_nodes=1, cpu_pods=1))


@pytest.fixture()
def manager(system):
    return FaultToleranceManager(system, FaultToleranceConfig(loader_checkpoint_interval=5))


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
    manager.register_shadow(primary, shadow, source.name)
    return primary, shadow


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
        system.failures.timeout(primary.name)
        assert manager.detect_failures([primary]) == [primary]

    def test_no_per_call_rpc_timeout(self):
        """No engine bounds a call by a timeout, so the heartbeat has none to pass."""
        with pytest.raises(TypeError, match="rpc_timeout_s"):
            FaultToleranceConfig(rpc_timeout_s=1.0)

    @pytest.mark.parametrize(
        "name",
        [
            "retry_budgets",
            "shadow_promotion_latency_s",
            "coordinator_restart_latency_s",
            "replay_latency_per_step_s",
        ],
    )
    def test_recovery_latencies_and_retry_budgets_are_not_knobs(self, name):
        """No caller set them: the latencies are module constants and every
        RPC retries under the one ``retry`` policy."""
        with pytest.raises(TypeError, match=name):
            FaultToleranceConfig(**{name: 1})


class TestCheckpointing:
    def test_checkpoint_written_on_interval(self, system, manager, small_catalog, filesystem):
        primary, _ = spawn_pair(system, manager, small_catalog, filesystem)
        assert manager.checkpoint_loader(primary, step=0)
        assert not manager.checkpoint_loader(primary, step=3)
        assert manager.checkpoint_loader(primary, step=5)
        checkpoint = manager.last_loader_checkpoint(primary.name)
        assert checkpoint["step"] == 5

    def test_checkpoint_requires_loader(self, system, manager):
        from repro.actors.actor import Actor

        other = system.create_actor(Actor, name="not-a-loader")
        with pytest.raises(FaultToleranceError):
            manager.checkpoint_loader(other, step=0)


class TestRecovery:
    def test_shadow_promotion(self, system, manager, small_catalog, filesystem):
        primary, shadow = spawn_pair(system, manager, small_catalog, filesystem)
        manager.checkpoint_loader(primary, step=0)
        system.kill_actor(primary.name)
        promoted = manager.recover_loader(primary, step=7)
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
        manager.checkpoint_loader(handle, step=0)
        system.kill_actor(handle.name)
        recovered = manager.recover_loader(handle, step=10)
        assert recovered.state is ActorState.RUNNING
        assert manager.events()[-1].kind == "restart"

    def test_replay_gap_adds_latency(self, system, manager, small_catalog, filesystem):
        primary, _ = spawn_pair(system, manager, small_catalog, filesystem)
        manager.checkpoint_loader(primary, step=0)
        system.kill_actor(primary.name)
        manager.recover_loader(primary, step=100)
        long_gap = manager.events()[-1].recovery_latency_s

        primary2, _ = spawn_pair(system, manager, small_catalog, filesystem, index=1)
        manager.checkpoint_loader(primary2, step=0)
        system.kill_actor(primary2.name)
        manager.recover_loader(primary2, step=1)
        short_gap = manager.events()[-1].recovery_latency_s
        assert long_gap > short_gap

    def test_coordinator_restart_preserves_state(self, system, manager, small_catalog, filesystem):
        source = small_catalog.sources()[0]
        handle = system.create_actor(
            lambda: SourceLoader(source, filesystem, buffer_size=8),
            name="coordinator-like",
            memory_bytes=GIB,
        )
        ids = [m.sample_id for m in handle.instance().summary_buffer()[:2]]
        handle.call("prepare", ids)
        recovered = manager.recover_coordinator(handle, step=3)
        assert recovered.instance().stats.samples_prepared == 2

    def test_shadow_memory_accounted(self, system, manager, small_catalog, filesystem):
        spawn_pair(system, manager, small_catalog, filesystem)
        assert manager.shadow_count() == 1
        assert manager.shadow_memory_bytes() > 0

    def test_ettr_decreases_with_recovery_time(self, system, manager, small_catalog, filesystem):
        primary, _ = spawn_pair(system, manager, small_catalog, filesystem)
        assert manager.effective_training_time_ratio(100, 10.0) == pytest.approx(1.0)
        system.kill_actor(primary.name)
        manager.recover_loader(primary, step=50)
        ettr = manager.effective_training_time_ratio(100, 10.0)
        assert 0.0 < ettr < 1.0

    def test_ettr_zero_iterations(self, manager):
        assert manager.effective_training_time_ratio(0, 10.0) == 0.0
