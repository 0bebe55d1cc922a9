"""Unit tests for the MegaScaleData facade and TrainingJobSpec."""

from __future__ import annotations

import pytest

from repro.actors.actor import Actor
from repro.actors.runtime import ActorSystem
from repro.chaos import FaultPlan
from repro.core.cost_model import DataPlaneLatencyProvider, reconcile_timing
from repro.core.deploy import build_catalog
from repro.core.fault_tolerance import FaultToleranceManager
from repro.core.framework import HISTORY_WINDOW, MegaScaleData, TrainingJobSpec
from repro.core.resharding import ReshardNotification
from repro.core.tenancy import TenantManager, TenantSpec
from repro.data.mixture import MixturePhase, MixtureSchedule
from repro.errors import ConfigurationError
from repro.metrics.memory import MemoryLedger
from repro.metrics.timeline import Timeline
from repro.parallelism.mesh import DeviceMesh
from repro.storage.filesystem import SimulatedFileSystem
from repro.storage.reader import ColumnarReader
from conftest import bucket_samples, retained_bytes

#: What a run of ``vlm_example`` may still retain from step 40 to step 200,
#: tracing from step 20: the windows filling up with traced records (step
#: results, timeline events, plan records up to the replay floor) and the
#: per-step records that still grow (delivery manifests, overlap ledger,
#: utilization samples, stall log), about 3.9 KB a step; the slack is a third above
#: that, rounded to 5 KiB.  An unbounded history added 17 KB a step, and
#: keeping every plan record, timeline event and loader snapshot as Python
#: objects 5.4 KB.
RETAINED_SLACK_BYTES = 160 * 5 * 1024

@pytest.fixture(scope="module")
def deployed_system():
    job = TrainingJobSpec(
        pp=1,
        dp=2,
        cp=1,
        tp=2,
        backbone="Llama-12B",
        encoder="ViT-1B",
        samples_per_dp_step=8,
        num_microbatches=2,
        num_sources=4,
        samples_per_source=64,
        strategy="hybrid",
        seed=11,
    )
    return MegaScaleData.deploy(job)


class TestTrainingJobSpec:
    def test_device_mesh_shape(self):
        job = TrainingJobSpec(pp=2, dp=3, cp=1, tp=2)
        mesh = job.device_mesh()
        assert mesh.world_size == 12

    def test_device_mesh_has_sixteen_gpus_per_node(self):
        mesh = TrainingJobSpec(pp=2, dp=4, cp=1, tp=4).device_mesh()
        assert mesh.gpus_per_node == 16
        assert mesh.num_nodes == 2

    @pytest.mark.parametrize("group", ["navit_data", "coyo700m"])
    def test_dataset_group_selects_the_catalog(self, group):
        job = TrainingJobSpec(dataset_group=group, num_sources=2, samples_per_source=8)
        catalog = build_catalog(job, SimulatedFileSystem())
        assert {source.dataset_group for source in catalog} == {group}

    def test_vlm_model_built(self):
        job = TrainingJobSpec(backbone="Llama-12B", encoder="ViT-2B")
        model = job.model()
        assert model.backbone.name == "Llama-12B"
        assert model.encoder.name == "ViT-2B"

    def test_text_only_model(self):
        job = TrainingJobSpec.text_example()
        assert job.model().name == job.backbone

    def test_invalid_batching(self):
        with pytest.raises(ConfigurationError):
            TrainingJobSpec(samples_per_dp_step=2, num_microbatches=4)

    @pytest.mark.parametrize(
        "batching",
        [
            {"samples_per_dp_step": 0, "num_microbatches": 0},
            {"samples_per_dp_step": 4, "num_microbatches": 0},
        ],
        ids=["empty-step", "no-microbatches"],
    )
    def test_empty_step_rejected(self, batching):
        with pytest.raises(ConfigurationError, match=">= 1"):
            TrainingJobSpec(**batching)

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigurationError):
            TrainingJobSpec(backbone="GPT-9")
        with pytest.raises(ConfigurationError):
            TrainingJobSpec(encoder="CLIP-XXL")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigurationError, match="strategy 'nope'"):
            TrainingJobSpec(strategy="nope")

    def test_unknown_dataset_group_rejected(self):
        with pytest.raises(ConfigurationError, match="dataset_group 'coyo'"):
            TrainingJobSpec(dataset_group="coyo")

    def test_empty_sequence_length_rejected(self):
        with pytest.raises(ConfigurationError, match="max_sequence_length"):
            TrainingJobSpec(max_sequence_length=0)

    def test_global_samples_per_step(self):
        job = TrainingJobSpec(dp=4, samples_per_dp_step=8)
        assert job.global_samples_per_step() == 32

    def test_example_specs_valid(self):
        assert TrainingJobSpec.vlm_example().encoder is not None
        assert TrainingJobSpec.text_example().encoder is None


class TestRetiredKnobs:
    """Retired A/B twins and telemetry knobs are gone, not renamed."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: TrainingJobSpec(lane_model="capacity_split"),
            lambda: TrainingJobSpec(elastic_fleet=True),
            lambda: TrainingJobSpec(bounded_telemetry=False),
            lambda: TrainingJobSpec(dispatcher="indexed"),
            lambda: TenantManager(dispatcher="indexed"),
            lambda: ActorSystem(dispatcher="linear"),
            lambda: DataPlaneLatencyProvider(lane_model="capacity_split"),
            lambda: TrainingJobSpec(telemetry_window=32),
            lambda: ActorSystem(call_log_limit=3),
            lambda: Timeline(max_events=2),
            lambda: TrainingJobSpec(spawn_warmup_s=1.0),
            lambda: ActorSystem().create_actor(Actor, warmup_s=1.0),
            lambda: ActorSystem().create_actor(Actor, node_affinity="n"),
            lambda: ActorSystem().retire_actor("a", mode="handoff"),
            lambda: ActorSystem().retire_actor("a", successor="b"),
            lambda: ActorSystem().resize_actor_pool("a", concurrency=2),
            lambda: ColumnarReader(SimulatedFileSystem(), "/f", MemoryLedger(), config=None),
            lambda: FaultToleranceManager(ActorSystem()).promote_standby(
                None, None, 0, replay_steps=1
            ),
            lambda: FaultPlan.random_storm(0, 10.0, include_store_outage=False),
            lambda: reconcile_timing({}, {}, atol_s=0.1),
            lambda: MemoryLedger().release_all("x"),
        ],
        ids=["job-lane_model", "job-elastic_fleet", "job-bounded_telemetry",
             "job-dispatcher", "tenancy-dispatcher", "system-dispatcher", "provider-lane_model",
             "job-telemetry_window", "system-call_log_limit", "timeline-max_events",
             "job-spawn_warmup_s", "create_actor-warmup_s", "create_actor-node_affinity",
             "retire_actor-mode", "retire_actor-successor", "resize_actor_pool-concurrency",
             "reader-config", "promote_standby-replay_steps",
             "random_storm-include_store_outage", "reconcile_timing-atol_s",
             "ledger-release_all-category"],
    )
    def test_removed_spelling_raises_type_error(self, build):
        with pytest.raises(TypeError):
            build()

    def test_spec_field_count(self):
        import dataclasses

        assert len(dataclasses.fields(TrainingJobSpec)) == 26


class TestTelemetryWindow:
    @pytest.mark.parametrize("window", [0, -5])
    def test_window_below_one_rejected(self, window):
        # The field is gone, so every window is rejected at construction.
        with pytest.raises(TypeError, match="telemetry_window"):
            TrainingJobSpec(telemetry_window=window)


class TestBoundedHistory:
    def test_history_keeps_a_window_and_the_ledger_keeps_the_run(self):
        """``history()`` holds the latest ``HISTORY_WINDOW`` results; the
        overlap ledger's totals, which the tenant report reads, still sum
        every consumed step in consume order."""
        manager = TenantManager()
        system = manager.admit(TenantSpec(name="solo", job=TrainingJobSpec.text_example()))
        try:
            results = [system.run_step() for _ in range(HISTORY_WINDOW + 5)]
            history = system.history()
            report = manager.report()["tenants"]["solo"]
        finally:
            manager.shutdown()
        assert len(history) == HISTORY_WINDOW
        assert all(kept is result for kept, result in zip(history, results[-HISTORY_WINDOW:]))
        assert report["steps"] == len(results)
        assert report["data_stall_time_s"] == sum(r.data_stall_s for r in results)
        assert report["hidden_data_time_s"] == sum(r.hidden_fetch_s for r in results)
        assert report["exposed_data_time_s"] == sum(r.exposed_fetch_s for r in results)

    def test_retained_memory_does_not_grow_with_the_history(self):
        """Past the window, a longer run keeps no more step results: from
        40 to 200 steps the bytes a run retains (tracemalloc, after warm-up)
        grow by the other components' per-step records alone."""
        system = MegaScaleData.deploy(TrainingJobSpec.vlm_example())
        try:
            retained = retained_bytes(lambda _: system.run_step(), 20, (40, 200))
        finally:
            system.shutdown()
        assert retained[1] - retained[0] < RETAINED_SLACK_BYTES


class TestDeployment:
    def test_actor_inventory(self, deployed_system):
        system = deployed_system
        assert len(system.constructor_handles) == system.job.dp
        assert len(system.loader_handles) >= system.job.num_sources

    def test_planner_on_cpu_pod(self, deployed_system):
        node = deployed_system.system.actor_node("planner")
        assert node.startswith("cpu-pod")

    def test_partition_plan_covers_sources(self, deployed_system):
        assert set(deployed_system.partition_plan.configs) == set(
            deployed_system.catalog.names()
        )

    def test_memory_report_nonzero(self, deployed_system):
        report = deployed_system.memory_report()
        assert report["total"] > 0


class TestRunStep:
    def test_step_produces_deliveries_for_fetching_ranks(self, deployed_system):
        result = deployed_system.run_step()
        fetchers = set(result.plan.fetching_ranks)
        assert fetchers
        assert fetchers <= set(result.deliveries)
        assert sum(d.total_payload_bytes() for d in result.deliveries.values()) > 0
        assert result.data_fetch_latency_s > 0

    def test_assignments_match_mesh(self, deployed_system):
        result = deployed_system.run_step()
        backbone = bucket_samples(result.plan.module("backbone"))
        assert len(backbone) == deployed_system.job.dp
        assert all(len(bucket) == deployed_system.job.num_microbatches for bucket in backbone)
        encoder = bucket_samples(result.plan.module("encoder"))
        assert len(encoder) == deployed_system.tree.mesh.world_size

    def test_simulate_iteration(self, deployed_system):
        result = deployed_system.run_step(simulate=True)
        assert result.iteration is not None
        assert result.iteration.iteration_time_s > 0
        assert result.iteration.total_tokens > 0

    def test_steps_advance_and_history_recorded(self, deployed_system):
        before = len(deployed_system.history())
        deployed_system.run_step()
        deployed_system.run_step()
        history = deployed_system.history()
        assert len(history) == before + 2
        assert history[-1].step == history[-2].step + 1

    def test_sync_path_keeps_random_step_access(self):
        """Regression: with prefetch_depth=0 the trainer may re-request an
        earlier step (rollback); the in-order guard only binds the pipeline."""
        job = TrainingJobSpec(
            pp=1, dp=2, cp=1, tp=1, encoder=None, strategy="backbone_balance",
            samples_per_dp_step=4, num_microbatches=2, num_sources=3, samples_per_source=48,
        )
        system = MegaScaleData.deploy(job)
        system.run_step(step=5)
        result = system.run_step(step=3)
        assert result.step == 3
        assert result.deliveries
        system.shutdown()

    def test_run_training_summary(self, deployed_system):
        summary = deployed_system.run_training(num_steps=2)
        assert summary["steps"] == 2
        assert summary["avg_iteration_time_s"] > 0
        assert summary["throughput_tokens_per_s"] > 0


class TestReshard:
    def test_handle_reshard_updates_topology(self):
        job = TrainingJobSpec(
            pp=1, dp=2, cp=1, tp=1, encoder=None, strategy="backbone_balance",
            samples_per_dp_step=4, num_microbatches=2, num_sources=3, samples_per_source=32,
        )
        system = MegaScaleData.deploy(job)
        system.run_step()
        new_mesh = DeviceMesh(pp=1, dp=2, cp=1, tp=2)
        report = system.handle_reshard(ReshardNotification(step=1, new_mesh=new_mesh))
        assert report.new_world_size == 4
        assert system.tree.mesh is new_mesh
        result = system.run_step()
        assert result.deliveries

    @pytest.mark.parametrize("prefetch_depth", [0, 2])
    def test_shrinking_reshard_retires_constructors(self, prefetch_depth):
        """Regression: a DP shrink must retire surplus constructors (and, with
        prefetching, flush in-flight steps) instead of crashing construct."""
        job = TrainingJobSpec(
            pp=1, dp=2, cp=1, tp=1, encoder=None, strategy="backbone_balance",
            samples_per_dp_step=4, num_microbatches=2, num_sources=3,
            samples_per_source=48, prefetch_depth=prefetch_depth,
        )
        system = MegaScaleData.deploy(job)
        system.run_step()
        report = system.handle_reshard(
            ReshardNotification(step=1, new_mesh=DeviceMesh(pp=1, dp=1, cp=1, tp=1))
        )
        assert report.constructors_retired == 1
        assert len(system.constructor_handles) == 1
        result = system.run_step()
        assert result.step == 1
        assert result.deliveries
        system.shutdown()
        assert system.memory_report()["total"] == 0

    def test_growing_reshard_provisions_constructors(self):
        job = TrainingJobSpec(
            pp=1, dp=2, cp=1, tp=1, encoder=None, strategy="backbone_balance",
            samples_per_dp_step=8, num_microbatches=2, num_sources=3,
            samples_per_source=64, prefetch_depth=1,
        )
        system = MegaScaleData.deploy(job)
        system.run_step()
        report = system.handle_reshard(
            ReshardNotification(step=1, new_mesh=DeviceMesh(pp=1, dp=4, cp=1, tp=1))
        )
        assert report.constructors_added == 2
        assert len(system.constructor_handles) == 4
        result = system.run_step()
        assert len(result.deliveries) == 4
        system.shutdown()


class TestShutdownAndMixture:
    def test_shutdown_releases_memory(self):
        job = TrainingJobSpec(
            pp=1, dp=1, cp=1, tp=1, encoder=None, strategy="vanilla",
            samples_per_dp_step=4, num_microbatches=2, num_sources=2, samples_per_source=32,
        )
        system = MegaScaleData.deploy(job)
        assert system.memory_report()["total"] > 0
        system.shutdown()
        assert system.memory_report()["total"] == 0

    def test_double_shutdown_is_idempotent(self):
        """Regression: a second shutdown() must be a harmless no-op."""
        job = TrainingJobSpec(
            pp=1, dp=1, cp=1, tp=1, encoder=None, strategy="vanilla",
            samples_per_dp_step=4, num_microbatches=2, num_sources=2, samples_per_source=32,
        )
        system = MegaScaleData.deploy(job)
        system.run_step()
        system.shutdown()
        state_after_first = system.memory_report()
        system.shutdown()  # must not raise or change anything
        assert system.memory_report() == state_after_first
        assert system.memory_report()["total"] == 0

    def test_shutdown_drains_inflight_prefetch_work(self):
        """Shutdown with a warm prefetch pipeline cancels queued work and
        releases every byte staged for never-consumed steps."""
        job = TrainingJobSpec(
            pp=1, dp=2, cp=1, tp=1, encoder=None, strategy="backbone_balance",
            samples_per_dp_step=4, num_microbatches=2, num_sources=3,
            samples_per_source=48, prefetch_depth=2,
        )
        system = MegaScaleData.deploy(job)
        system.run_step()
        assert system.pipeline.inflight()  # steps 1..2 staged ahead
        system.shutdown()
        assert not system.pipeline.inflight()
        assert system.system.pending_count() == 0
        assert system.memory_report()["total"] == 0
        system.shutdown()  # idempotent with the pipeline attached too
        assert system.memory_report()["total"] == 0

    def test_shutdown_covers_promoted_and_shadow_actors(self):
        job = TrainingJobSpec(
            pp=1, dp=2, cp=1, tp=1, encoder=None, strategy="backbone_balance",
            samples_per_dp_step=4, num_microbatches=2, num_sources=3,
            samples_per_source=48, enable_shadow_loaders=True, prefetch_depth=1,
        )
        system = MegaScaleData.deploy(job)
        system.run_step()
        system.system.failures.fail(system.loader_handles[0].name)
        system.run_step()  # triggers shadow promotion inside the pipeline
        system.shutdown()
        assert system.memory_report()["total"] == 0

    def test_user_mixture_respected(self):
        job = TrainingJobSpec(
            pp=1, dp=2, cp=1, tp=1, encoder=None, strategy="backbone_balance",
            samples_per_dp_step=4, num_microbatches=2, num_sources=3, samples_per_source=32,
        )
        system = MegaScaleData.deploy(job)
        names = system.catalog.names()
        system.set_mixture(
            MixtureSchedule.static({names[0]: 0.98, **{n: 0.01 for n in names[1:]}})
        )
        result = system.run_step()
        demands = result.plan.source_demands
        total = sum(len(ids) for ids in demands.values())
        assert len(demands.get(names[0], [])) > 0.5 * total

    def test_set_mixture_invalidates_weights_memo(self):
        """Swapping schedules at runtime must not serve the old schedule's
        memoized weights: set_mixture installs a new schedule instance, and
        the planner reads the new weights for a step the old instance had
        already memoized."""
        job = TrainingJobSpec(
            pp=1, dp=2, cp=1, tp=1, encoder=None, strategy="backbone_balance",
            samples_per_dp_step=4, num_microbatches=2, num_sources=3,
            samples_per_source=32,
        )
        system = MegaScaleData.deploy(job)
        try:
            names = system.catalog.names()
            system.set_mixture(MixtureSchedule.uniform(names))
            planner = system.planner_handle.instance()
            old = planner.mixture
            old_weights = old.weights_at(5)
            assert 5 in old._weights_memo
            system.set_mixture(
                MixtureSchedule.static({names[0]: 0.9, **{n: 0.05 for n in names[1:]}})
            )
            assert planner.mixture is not old
            assert 5 not in planner.mixture._weights_memo
            new_weights = planner.mixture.weights_at(5)
            assert new_weights != old_weights
            assert new_weights[names[0]] == pytest.approx(0.9)
        finally:
            system.shutdown()


class TestUnknownSourceNames:
    """A source name outside the catalog is a configuration error, not a
    silent no-op or a renormalized-away weight."""

    def make_job(self, **overrides) -> TrainingJobSpec:
        return TrainingJobSpec(
            pp=1, dp=2, cp=1, tp=1, encoder=None, strategy="backbone_balance",
            samples_per_dp_step=4, num_microbatches=2, num_sources=3,
            samples_per_source=32, prefetch_depth=2, **overrides,
        )

    def test_scale_source_rejects_unknown_source(self):
        system = MegaScaleData.deploy(self.make_job())
        try:
            members = system.fleet.total_members()
            with pytest.raises(ConfigurationError, match="no-such-source"):
                system.scale_source("no-such-source", 3)
            assert system.fleet.total_members() == members
        finally:
            system.shutdown()

    @pytest.mark.parametrize("kind", ["static", "staged"])
    def test_set_mixture_rejects_unknown_source_and_keeps_running(self, kind):
        system = MegaScaleData.deploy(self.make_job())
        try:
            known = system.catalog.names()[0]
            weights = {known: 0.5, "typo": 0.5}
            mixture = (
                MixtureSchedule.static(weights)
                if kind == "static"
                else MixtureSchedule.staged([MixturePhase(0, {known: 1.0}), MixturePhase(4, weights)])
            )
            planner = system.planner_handle.instance()
            installed = planner.mixture
            with pytest.raises(ConfigurationError, match="typo"):
                system.set_mixture(mixture, flush_pending=True)
            assert planner.mixture is installed
            assert system.run_step().step == 0
            system.set_mixture(MixtureSchedule.static({known: 1.0}), flush_pending=True)
            assert set(system.run_step().plan.source_demands) == {known}
        finally:
            system.shutdown()

    def test_deploy_rejects_job_mixture_with_unknown_source(self):
        job = self.make_job(mixture=MixtureSchedule.static({"typo": 1.0}))
        with pytest.raises(ConfigurationError, match="typo"):
            MegaScaleData.deploy(job)


class TestSetMixtureFlushPending:
    def make_job(self, prefetch_depth: int) -> TrainingJobSpec:
        return TrainingJobSpec(
            pp=1, dp=2, cp=1, tp=1, encoder=None, strategy="backbone_balance",
            samples_per_dp_step=4, num_microbatches=2, num_sources=3,
            samples_per_source=48, seed=7, prefetch_depth=prefetch_depth,
            enable_autoscaler=False,
        )

    @staticmethod
    def signature(result):
        return {
            rank: [
                (piece.rank, piece.microbatch_index, piece.token_count, piece.payload_bytes)
                for piece in delivery.slices
            ]
            for rank, delivery in sorted(result.deliveries.items())
        }

    def heavy_mixture(self, system):
        names = system.catalog.names()
        return MixtureSchedule.static({names[-1]: 0.9, **{n: 0.05 for n in names[:-1]}})

    def test_flush_pending_matches_synchronous_switch(self):
        """Determinism regression: a mid-run mixture swap with
        ``flush_pending=True`` re-plans in-flight steps, so the prefetched
        run stays byte-identical to a synchronous run switching at the same
        step (the documented limitation this option closes)."""
        sync = MegaScaleData.deploy(self.make_job(0))
        prefetched = MegaScaleData.deploy(self.make_job(2))
        try:
            for _ in range(2):
                assert self.signature(sync.run_step()) == self.signature(prefetched.run_step())
            sync.set_mixture(self.heavy_mixture(sync))
            prefetched.set_mixture(self.heavy_mixture(prefetched), flush_pending=True)
            for _ in range(3):
                a, b = sync.run_step(), prefetched.run_step()
                assert a.plan.source_demands == b.plan.source_demands
                assert self.signature(a) == self.signature(b)
        finally:
            sync.shutdown()
            prefetched.shutdown()

    def test_without_flush_inflight_steps_keep_old_mixture(self):
        """The default keeps the documented behaviour: steps already planned
        in flight still deliver samples drawn under the old mixture."""
        sync = MegaScaleData.deploy(self.make_job(0))
        prefetched = MegaScaleData.deploy(self.make_job(2))
        try:
            for _ in range(2):
                sync.run_step()
                prefetched.run_step()
            sync.set_mixture(self.heavy_mixture(sync))
            prefetched.set_mixture(self.heavy_mixture(prefetched))  # no flush
            a, b = sync.run_step(), prefetched.run_step()
            # The prefetched step 2 was planned before the swap.
            assert a.plan.source_demands != b.plan.source_demands
        finally:
            sync.shutdown()
            prefetched.shutdown()

    def test_flush_pending_noop_on_synchronous_deployment(self):
        system = MegaScaleData.deploy(self.make_job(0))
        try:
            system.run_step()
            system.set_mixture(self.heavy_mixture(system), flush_pending=True)
            assert system.run_step().deliveries
        finally:
            system.shutdown()
