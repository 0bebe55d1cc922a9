"""Unit tests for the multisource AutoScaler (partitioning + online scaling)."""

from __future__ import annotations

import math

import pytest

from repro.core.autoscaler import (
    MAX_ACTORS_PER_SOURCE,
    MAX_WORKERS_PER_ACTOR,
    PER_SOURCE_STATE_BYTES,
    SCALE_DOWN_THRESHOLD,
    SCALE_UP_THRESHOLD,
    MixtureDrivenScaler,
    PartitionPlan,
    ResourceBudget,
    SourceAutoPartitioner,
    SourceLoaderConfig,
)
from repro.data.samples import Modality
from repro.data.sources import DataSource, SourceCatalog
from repro.errors import ScalingError
from repro.utils.units import GIB


def heterogeneous_catalog():
    """Sources whose per-sample cost spans ~3 orders of magnitude."""
    catalog = SourceCatalog()
    specs = [
        ("text-a", Modality.TEXT, 0.0, 64.0),
        ("text-b", Modality.TEXT, 0.0, 128.0),
        ("image-a", Modality.IMAGE, 2048.0, 32.0),
        ("image-b", Modality.IMAGE, 8192.0, 32.0),
        ("video-a", Modality.VIDEO, 16384.0, 16.0),
        ("audio-a", Modality.AUDIO, 0.0, 2048.0),
    ]
    for name, modality, image_tokens, text_tokens in specs:
        catalog.add(
            DataSource(
                name=name,
                modality=modality,
                paths=(f"/data/{name}",),
                num_samples=1000,
                avg_text_tokens=text_tokens,
                avg_image_tokens=image_tokens,
            )
        )
    return catalog


BUDGET = ResourceBudget(cpu_cores=128.0, memory_bytes=256 * GIB)


class TestSourceAutoPartitioner:
    def test_every_source_gets_a_config(self):
        plan = SourceAutoPartitioner().partition(heterogeneous_catalog(), BUDGET)
        assert set(plan.configs) == {s.name for s in heterogeneous_catalog()}
        assert plan.total_actors() >= len(plan.configs)

    def test_costlier_sources_get_more_workers(self):
        plan = SourceAutoPartitioner().partition(heterogeneous_catalog(), BUDGET)
        cheap = plan.config_for("text-a")
        expensive = plan.config_for("video-a")
        assert expensive.total_workers >= cheap.total_workers
        assert expensive.total_workers > 1
        assert cheap.total_workers == 1

    def test_worker_caps_respected(self):
        partitioner = SourceAutoPartitioner(max_workers_per_source=4)
        plan = partitioner.partition(heterogeneous_catalog(), BUDGET)
        for config in plan.configs.values():
            assert config.total_workers <= 4
            assert config.workers_per_actor <= MAX_WORKERS_PER_ACTOR

    def test_cluster_count_bounded_by_sources(self):
        partitioner = SourceAutoPartitioner(num_clusters=50)
        plan = partitioner.partition(heterogeneous_catalog(), BUDGET)
        assert plan.num_clusters <= len(heterogeneous_catalog())

    def test_empty_catalog_rejected(self):
        with pytest.raises(ScalingError):
            SourceAutoPartitioner().partition(SourceCatalog(), BUDGET)

    def test_invalid_cluster_count(self):
        with pytest.raises(ScalingError):
            SourceAutoPartitioner(num_clusters=0)

    def test_memory_budget_shrinks_configs(self):
        generous = SourceAutoPartitioner().partition(heterogeneous_catalog(), BUDGET)
        tight_budget = ResourceBudget(cpu_cores=128.0, memory_bytes=2 * GIB)
        tight = SourceAutoPartitioner().partition(heterogeneous_catalog(), tight_budget)
        assert tight.total_memory_bytes() <= tight_budget.memory_bytes
        assert tight.total_workers() <= generous.total_workers()
        assert tight.notes  # shrink actions were recorded

    def test_infeasible_budget_rejected(self):
        tiny = ResourceBudget(cpu_cores=64.0, memory_bytes=1024)
        with pytest.raises(ScalingError):
            SourceAutoPartitioner().partition(heterogeneous_catalog(), tiny)

    def test_budget_must_leave_loader_cores(self):
        bad = ResourceBudget(cpu_cores=6.0, memory_bytes=GIB, constructor_cores=4.0, planner_cores=4.0)
        with pytest.raises(ScalingError):
            bad.loader_cores()

    def test_workers_split_over_actors_of_bounded_size(self):
        plan = SourceAutoPartitioner().partition(heterogeneous_catalog(), BUDGET)
        for config in plan.configs.values():
            assert config.workers_per_actor <= MAX_WORKERS_PER_ACTOR
            assert config.num_actors == math.ceil(config.total_workers / MAX_WORKERS_PER_ACTOR)
            assert config.estimated_memory_bytes >= PER_SOURCE_STATE_BYTES * config.num_actors
        assert max(config.num_actors for config in plan.configs.values()) > 1

    def test_partition_real_synthetic_catalog(self, small_catalog):
        plan = SourceAutoPartitioner().partition(small_catalog, BUDGET)
        assert plan.total_workers() >= len(small_catalog)
        assert plan.worker_block_cores > 0


class TestMixtureDrivenScaler:
    def make_plan(self, sources=("a", "b", "c")):
        plan = PartitionPlan()
        for name in sources:
            plan.configs[name] = SourceLoaderConfig(
                source=name,
                num_actors=1,
                workers_per_actor=2,
                cluster_index=0,
                estimated_cost_s=0.001,
                estimated_memory_bytes=1024,
            )
        return plan

    def test_scale_up_after_consecutive_hot_intervals(self):
        scaler = MixtureDrivenScaler(self.make_plan(), consecutive_intervals=3)
        hot = {"a": 0.8, "b": 0.1, "c": 0.1}
        directives = []
        for step in range(5):
            directives.extend(scaler.observe(step, hot).directives)
        assert any(d.source == "a" and d.target_actors == 2 for d in directives)
        assert scaler.current_actors("a") == 2
        assert scaler.rescale_events >= 1

    def test_no_scale_up_for_transient_spike(self):
        scaler = MixtureDrivenScaler(self.make_plan(), consecutive_intervals=3)
        scaler.observe(0, {"a": 0.9, "b": 0.05, "c": 0.05})
        plan = scaler.observe(1, {"a": 0.33, "b": 0.33, "c": 0.34})
        assert plan.is_empty()
        assert scaler.current_actors("a") == 1

    def test_scale_down_reclaims_idle_actors(self):
        scaler = MixtureDrivenScaler(self.make_plan(), consecutive_intervals=2)
        for step in range(4):
            scaler.observe(step, {"a": 0.9, "b": 0.05, "c": 0.05})
        assert scaler.current_actors("a") >= 2
        directives = []
        for step in range(4, 10):
            directives.extend(scaler.observe(step, {"a": 0.02, "b": 0.49, "c": 0.49}).directives)
        assert any(d.source == "a" and d.target_actors == 1 for d in directives)
        assert scaler.current_actors("a") == 1

    def test_thresholds_are_inclusive(self):
        scaler = MixtureDrivenScaler(self.make_plan(("a", "b")), consecutive_intervals=1)
        fair = 0.5
        up = SCALE_UP_THRESHOLD * fair
        down = SCALE_DOWN_THRESHOLD * fair
        assert [d.source for d in scaler.observe(0, {"a": up, "b": 1 - up}).directives] == ["a"]
        assert scaler.current_actors("a") == 2
        directives = scaler.observe(1, {"a": down, "b": 1 - down}).directives
        assert [(d.source, d.target_actors) for d in directives] == [("a", 1), ("b", 2)]

    def test_back_to_back_observations_each_fire(self):
        """No rate limit: a streak completed on every observation fires on
        every observation, however close their virtual instants."""
        scaler = MixtureDrivenScaler(self.make_plan(), consecutive_intervals=1)
        hot = {"a": 0.8, "b": 0.1, "c": 0.1}
        for step, now_s in enumerate((0.0, 0.0, 1e-9)):
            assert scaler.observe(step, hot, now_s=now_s).directives
        assert [decision.at_s for decision in scaler.decision_log] == [0.0, 0.0, 1e-9]
        assert scaler.current_actors("a") == 4

    def test_actor_cap_respected(self):
        scaler = MixtureDrivenScaler(self.make_plan(), consecutive_intervals=1)
        for step in range(2 * MAX_ACTORS_PER_SOURCE):
            scaler.observe(step, {"a": 0.9, "b": 0.05, "c": 0.05})
        assert scaler.current_actors("a") == MAX_ACTORS_PER_SOURCE

    def test_never_scales_below_one(self):
        scaler = MixtureDrivenScaler(self.make_plan(), consecutive_intervals=1)
        for step in range(10):
            scaler.observe(step, {"a": 0.0, "b": 0.5, "c": 0.5})
        assert scaler.current_actors("a") == 1

    def test_invalid_intervals(self):
        with pytest.raises(ScalingError):
            MixtureDrivenScaler(self.make_plan(), consecutive_intervals=0)

    def test_total_current_actors(self):
        scaler = MixtureDrivenScaler(self.make_plan())
        assert scaler.total_current_actors() == 3

    def test_unknown_source_lookup(self):
        plan = self.make_plan()
        with pytest.raises(ScalingError):
            plan.config_for("zzz")

    def test_decisions_stamped_with_virtual_instants(self):
        scaler = MixtureDrivenScaler(self.make_plan(), consecutive_intervals=2)
        hot = {"a": 0.8, "b": 0.1, "c": 0.1}
        for step in range(3):
            scaler.observe(step, hot, now_s=float(step) * 2.0)
        assert scaler.decision_log
        decision = scaler.decision_log[0]
        assert decision.directive.source == "a"
        # The streak armed at step 0 and fired at step 1 (now_s = 2.0).
        assert decision.at_s == 2.0
        assert decision.step == 1

    def test_now_s_regression_rejected(self):
        """The virtual clock never moves backwards; feeding a stale instant
        must fail loudly instead of silently corrupting the decision log."""
        scaler = MixtureDrivenScaler(self.make_plan(), consecutive_intervals=1)
        hot = {"a": 0.8, "b": 0.1, "c": 0.1}
        scaler.observe(0, hot, now_s=5.0)
        with pytest.raises(ScalingError):
            scaler.observe(1, hot, now_s=4.0)
        # Equal instants are fine (several observations inside one event).
        scaler.observe(1, hot, now_s=5.0)
        # Clock-less observations skip the monotonicity check entirely.
        scaler.observe(2, hot)

    def test_total_current_actors_consistent_after_mixed_decisions(self):
        """Up/down decisions across sources must keep the per-source counts
        and their total reconciled with the issued directives."""
        scaler = MixtureDrivenScaler(self.make_plan(), consecutive_intervals=1)
        baseline = scaler.total_current_actors()
        net = 0
        mixtures = [
            {"a": 0.8, "b": 0.1, "c": 0.1},   # a up
            {"a": 0.8, "b": 0.1, "c": 0.1},   # a up again
            {"a": 0.02, "b": 0.49, "c": 0.49},  # a down, b+c up
            {"a": 0.02, "b": 0.49, "c": 0.49},
            {"a": 0.34, "b": 0.33, "c": 0.33},  # calm: no decisions
        ]
        for step, weights in enumerate(mixtures):
            plan = scaler.observe(step, weights)
            for directive in plan.directives:
                net += 1 if ">" in directive.reason else -1
        assert scaler.total_current_actors() == baseline + net
        assert scaler.total_current_actors() == sum(
            scaler.current_actors(source) for source in ("a", "b", "c")
        )
        # Every logged decision's target matches the count adopted at issue time.
        replay = {"a": 1, "b": 1, "c": 1}
        for decision in scaler.decision_log:
            replay[decision.directive.source] = decision.directive.target_actors
        assert replay == {
            source: scaler.current_actors(source) for source in ("a", "b", "c")
        }

    def test_reconcile_actors_adopts_fleet_truth(self):
        scaler = MixtureDrivenScaler(self.make_plan(), consecutive_intervals=1)
        hot = {"a": 0.8, "b": 0.1, "c": 0.1}
        scaler.observe(0, hot)
        assert scaler.current_actors("a") == 2
        # Placement rejected the spawn: the facade reports the actual count.
        scaler.reconcile_actors("a", 1)
        assert scaler.current_actors("a") == 1
        assert scaler.total_current_actors() == 3
        with pytest.raises(ScalingError):
            scaler.reconcile_actors("a", 0)
        with pytest.raises(ScalingError):
            scaler.reconcile_actors("zzz", 1)


class TestAutoScalerUnderPipelinedRuns:
    """AutoScaler decisions while the prefetching pipeline has steps in flight."""

    def make_job(self, prefetch_depth: int, mixture):
        from repro.core.framework import TrainingJobSpec

        return TrainingJobSpec(
            pp=1, dp=2, cp=1, tp=1, encoder=None, strategy="backbone_balance",
            samples_per_dp_step=4, num_microbatches=2, num_sources=3,
            samples_per_source=48, seed=7, prefetch_depth=prefetch_depth,
            enable_autoscaler=True, mixture=mixture,
        )

    def hot_mixture(self):
        from repro.data.mixture import MixtureSchedule

        # navit synthetic sources are named navit_data/srcNNN.
        return MixtureSchedule.static(
            {"navit_data/src000": 0.9, "navit_data/src001": 0.05, "navit_data/src002": 0.05}
        )

    def test_scale_up_triggers_while_steps_in_flight(self):
        from repro.core.framework import MegaScaleData

        system = MegaScaleData.deploy(self.make_job(2, self.hot_mixture()))
        try:
            planner = system.planner_handle.instance()
            planner.scaler.consecutive_intervals = 2
            directives = []
            inflight_at_decision = None
            for _ in range(4):
                result = system.run_step(simulate=True)
                if result.plan.scaling is not None:
                    directives.extend(result.plan.scaling.directives)
                    if inflight_at_decision is None:
                        inflight_at_decision = system.pipeline.inflight()
            assert any(
                d.source == "navit_data/src000" and d.target_actors >= 2 for d in directives
            )
            # The scale-up landed while future steps were still in flight.
            assert inflight_at_decision
            # Decisions are stamped with nonzero virtual-clock instants.
            assert planner.scaler.decision_log
            assert all(d.at_s is not None and d.at_s > 0.0 for d in planner.scaler.decision_log)
        finally:
            system.shutdown()

    def test_pipelined_scaling_plans_match_synchronous(self):
        """The pipeline generates plans ahead of the trainer, but the scaler
        sees the same observation sequence — delivered plans (including
        piggybacked scaling directives) are identical to a synchronous run."""
        from repro.core.framework import MegaScaleData

        sync = MegaScaleData.deploy(self.make_job(0, self.hot_mixture()))
        prefetched = MegaScaleData.deploy(self.make_job(2, self.hot_mixture()))
        try:
            sync.planner_handle.instance().scaler.consecutive_intervals = 2
            prefetched.planner_handle.instance().scaler.consecutive_intervals = 2
            for _ in range(4):
                a, b = sync.run_step(), prefetched.run_step()
                assert a.plan.source_demands == b.plan.source_demands
                a_scaling = a.plan.scaling.directives if a.plan.scaling else []
                b_scaling = b.plan.scaling.directives if b.plan.scaling else []
                assert a_scaling == b_scaling
        finally:
            sync.shutdown()
            prefetched.shutdown()
