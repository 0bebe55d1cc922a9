"""The MegaScaleData facade: deployment and the pull-based runtime workflow.

:class:`MegaScaleData` wires the disaggregated components together on the
actor runtime: it partitions the source catalog into Source Loader actors
(AutoScaler, Sec. 5), provisions one Data Constructor per data-parallel
consumer bucket (Sec. 3), registers the declarative orchestration strategy
with a centralized Planner (Sec. 4) and exposes the per-step pull workflow::

    1. trainer clients request data from their Data Constructor
    2. the constructor triggers fetches from Source Loaders
    3. loaders consult the Planner for a fresh loading plan
    4. the Planner gathers buffer metadata and synthesizes the plan
    5. loaders prepare samples, stage them, and refill from storage

Every step is driven by the :class:`~repro.core.step_pipeline.StepPipeline`:
with ``prefetch_depth=0`` (the default) it issues each data-plane call inline,
one step at a time; with ``prefetch_depth>=1`` it defers the calls on the
event engine and keeps that many future steps in flight behind the trainer.

Trainer and data plane co-simulate on the actor system's shared
:class:`~repro.actors.virtual.VirtualClock`: the trainer is a
:class:`~repro.training.simulator.TrainerActor` whose compute windows are
events on that clock, and every data-plane call occupies its actor for a
cost-model-derived virtual duration (see
:class:`~repro.core.cost_model.DataPlaneLatencyProvider`).  Per step, the
facade *measures* the trainer's stall against the step's data-ready instant
and records hidden/exposed data time in the
:class:`~repro.metrics.timeline.OverlapLedger` — overlap is an observed
quantity of the discrete-event simulation, not a heuristic credit.
"""

from __future__ import annotations

from dataclasses import replace

from repro.actors.actor import ActorFuture
from repro.actors.node import NodeKind
from repro.actors.runtime import ActorSystem, ClusterSpec
from repro.core.autoscaler import MixtureDrivenScaler, PartitionPlan
from repro.core.checkpoint import CheckpointStore
from repro.core.cost_model import DataPlaneLatencyProvider
from repro.core.data_constructor import DataConstructor, RankDelivery
from repro.core.degradation import DegradationController, ensure_sized_strategy
from repro.core.deploy import check_mixture_sources, provision, scoped_store
from repro.core.durability import (
    MANIFEST_NAMESPACE,
    RUN_NAMESPACE,
    DeliveryManifests,
    latest_run_checkpoint,
    load_run_checkpoint,
    save_run_checkpoint,
)
from repro.core.fault_tolerance import FaultToleranceManager
from repro.core.job import StepResult, TrainingJobSpec
from repro.core.loader_fleet import LoaderFleet
from repro.core.place_tree import ClientPlaceTree
from repro.core.planner import Planner, PlanTimings
from repro.core.plans import LoaderScalingDirective, LoadingPlan, ScalingPlan
from repro.core.recovery import FleetRecovery
from repro.core.resharding import (
    ElasticResharder,
    ReshardNotification,
    ReshardReport,
    resize_constructors,
)
from repro.core.source_loader import SourceLoader
from repro.core.step_pipeline import StepPipeline
from repro.data.mixture import MixtureSchedule
from repro.data.sources import SourceCatalog
from repro.errors import ActorTimeout, ConfigurationError, ReproError
from repro.metrics.report import ClusterUtilizationTracker
from repro.metrics.timeline import FLEET_ROLE, OverlapLedger
from repro.storage.filesystem import SimulatedFileSystem
from repro.training.simulator import GpuSpec, TrainerActor, TrainingSimulator

__all__ = [
    "MANIFEST_NAMESPACE",
    "RUN_NAMESPACE",
    "MegaScaleData",
    "StepResult",
    "TrainingJobSpec",
    "fetch_bound_gpu_spec",
]


class MegaScaleData:
    """Deployed MegaScale-Data instance for one training job."""

    def __init__(
        self,
        job: TrainingJobSpec,
        system: ActorSystem,
        filesystem: SimulatedFileSystem,
        catalog: SourceCatalog,
        partition_plan: PartitionPlan,
        planner_handle,
        loader_handles,
        constructor_handles,
        tree: ClientPlaceTree,
        fault_manager: FaultToleranceManager,
        checkpoint_store: CheckpointStore,
        degradation: DegradationController | None = None,
    ) -> None:
        self.job = job
        self.system = system
        self.filesystem = filesystem
        self.catalog = catalog
        self.partition_plan = partition_plan
        self.planner_handle = planner_handle
        self.loader_handles = list(loader_handles)
        self.constructor_handles = list(constructor_handles)
        self.tree = tree
        self.fault_manager = fault_manager
        #: Durable control-plane checkpoint store shared by the Planner, the
        #: delivery manifests and whole-run save/restore.
        self.checkpoint_store = checkpoint_store
        self.resharder = ElasticResharder(tree)
        # The data plane and the trainer co-simulate on the actor system's
        # virtual clock: results of deferred calls determine how long each
        # call occupied its actor (see DataPlaneLatencyProvider).  On a shared
        # (multi-tenant) system the first job installs the provider and later
        # tenants reuse it.
        if system.latency_provider is None:
            system.latency_provider = DataPlaneLatencyProvider()
        # The elastic loader fleet: shard groups seeded with the deploy-time
        # loaders as canonical members.  ScalingPlan directives spawn/retire
        # mirror members through the placement scheduler at step boundaries
        # (see repro.core.loader_fleet).
        self.fleet = LoaderFleet(system, filesystem, job)
        for handle in self.loader_handles:
            loader: SourceLoader = handle.instance()
            config = partition_plan.config_for(loader.source.name)
            self.fleet.register_canonical(
                handle,
                source=loader.source.name,
                shard_index=loader.shard_index,
                shard_count=loader.shard_count,
                workers_per_actor=loader.num_workers,
                memory_bytes=config.estimated_memory_bytes,
            )
        self.fleet.on_change = self._on_fleet_change
        self.utilization = ClusterUtilizationTracker()
        simulator = TrainingSimulator(job.model(), tree.mesh, gpu=job.gpu_spec or GpuSpec())
        self.trainer_handle = system.create_actor(
            lambda: TrainerActor(simulator),
            name=job.scoped("trainer"),
            cpu_cores=1.0,
            memory_bytes=64 * 1024 * 1024,
            prefer=NodeKind.ACCELERATOR,
            tenant=job.tenant,
        )
        #: The consume position: the next step ``run_step`` delivers.
        self.step = 0
        self._history: list[StepResult] = []
        self._shutdown_done = False
        self.overlap = OverlapLedger(tenant=job.tenant)
        #: Renormalize-mode policy (None under degraded_mode="strict").
        self.degradation = degradation
        #: Fault absorption, rewind and member checkpoints.
        self.recovery = FleetRecovery(
            self.fleet, fault_manager, planner_handle, self.loader_handles, degradation,
            heal=self.recover_fleet_member,
        )
        if degradation is not None:
            degradation.recovery = self.recovery
            degradation.overlap = self.overlap
        self.manifests = DeliveryManifests(self.checkpoint_store)
        #: Virtual instant the latest consumed step began on the trainer —
        #: the issue instant for steps the pipeline queues at that consume.
        self.last_release_s = 0.0
        #: Deferred trainer iteration (wallclock + prefetching only): the await
        #: is postponed until after the pipeline pumps prefetch work, so real
        #: trainer compute overlaps the next steps' fetches on lane threads.
        self._pending_iteration: tuple | None = None
        #: The step driver (inline issue at depth 0, prefetching above).
        self.pipeline = StepPipeline(self, prefetch_depth=job.prefetch_depth)

    @property
    def simulator(self) -> TrainingSimulator:
        """The trainer actor's iteration simulator."""
        return self.trainer_handle.instance().simulator

    def virtual_time_s(self) -> float:
        """Virtual instant the trainer finishes its latest booked iteration."""
        return self.system.actor_free_at_s(self.trainer_handle.name)

    # -- deployment ---------------------------------------------------------------------------

    @classmethod
    def deploy(
        cls,
        job: TrainingJobSpec,
        catalog: SourceCatalog | None = None,
        filesystem: SimulatedFileSystem | None = None,
        cluster: ClusterSpec | None = None,
        checkpoint_store: CheckpointStore | None = None,
        system: ActorSystem | None = None,
    ) -> "MegaScaleData":
        """Provision storage, actors and the planner for ``job``.

        Passing ``system`` deploys onto an existing (shared) ActorSystem
        instead of provisioning a fresh cluster — the multi-tenant path.
        Shared deployments should set ``job.namespace`` so actor names, GCS
        keys and checkpoint namespaces stay disjoint across co-tenants.
        """
        return cls(**provision(job, catalog, filesystem, cluster, checkpoint_store, system))

    # -- runtime workflow ----------------------------------------------------------------------------

    def run_step(self, step: int | None = None, simulate: bool = False) -> StepResult:
        """Execute one pull-workflow step end to end (see :class:`StepPipeline`)."""
        return self.pipeline.run_step(step=step, simulate=simulate)

    def size_planner(self) -> None:
        """Cap the live Planner at the job's per-step sample budget (idempotent)."""
        ensure_sized_strategy(
            self.planner_handle.instance(), self.job, self.catalog, self.degradation
        )

    def finalize_step(
        self,
        step: int,
        plan: LoadingPlan,
        plan_timings: PlanTimings,
        loader_wall_clock_s: float,
        loader_transform_s: float,
        collate_seconds: float,
        data_ready_s: float | None,
        prefetched: bool,
        simulate: bool,
    ) -> StepResult:
        """The consume epilogue of a fully constructed step.

        Collects the per-rank deliveries, measures the trainer stall on the
        virtual clock, records the overlap entry, books the trainer's compute
        window as an event on the same clock (optionally simulating the
        iteration) and releases older staging.

        ``data_ready_s`` is the virtual instant the step's last construct
        event completed, or ``None`` at ``prefetch_depth=0``, where the data
        plane only starts once the trainer goes idle and readiness is
        therefore the trainer's free instant plus the full fetch latency.
        """
        # Step 1 (accounting): the fetch latency seen by the trainer clients.
        data_fetch_latency = plan_timings.total_s + loader_wall_clock_s + collate_seconds
        trainer_free_s = self.system.actor_free_at_s(self.trainer_handle.name)
        # Measured overlap: the trainer's wait for this step's data is real
        # virtual time, not an estimate — whatever portion of the fetch did
        # not stall the trainer was hidden behind earlier compute windows.
        if data_ready_s is None and self.system.backend == "wallclock":
            # Wallclock at depth 0: the inline calls already slept their
            # modelled latency on the caller thread, so readiness is
            # "now" on the shared clock, not an offset reconstruction.
            data_ready_s = self.system.clock.now_s
        if data_ready_s is None:
            data_ready_s = trainer_free_s + data_fetch_latency
            stall_s = data_fetch_latency  # inline fetch: exact, no float residue
        else:
            stall_s = max(0.0, data_ready_s - trainer_free_s)
        hidden_s = max(0.0, data_fetch_latency - stall_s)
        entry = self.overlap.record(step, data_fetch_latency, hidden_s, stall_s=stall_s)
        self.trainer_handle.instance().record_stall(
            step, stall_s, self.fleet.total_members()
        )

        deliveries: dict[int, RankDelivery] = {}
        fetching = set(plan.fetching_ranks)
        for constructor_handle in self.constructor_handles:
            constructor: DataConstructor = constructor_handle.instance()
            for rank in constructor.ranks_served(step):
                if rank in fetching:
                    deliveries[rank] = self.recovery.call_constructor(
                        constructor_handle, step, rank
                    )
        self.manifests.spill(step, plan, self.constructor_handles, sorted(deliveries))

        result = StepResult(
            step=step,
            plan=plan,
            plan_timings=plan_timings,
            loader_wall_clock_s=loader_wall_clock_s,
            loader_transform_s=loader_transform_s,
            constructor_collate_s=collate_seconds,
            data_fetch_latency_s=data_fetch_latency,
            deliveries=deliveries,
            hidden_fetch_s=entry.hidden_s,
            prefetched=prefetched,
            data_stall_s=stall_s,
        )

        # Book the trainer's window for this step on the shared clock; its
        # start is the issue instant for whatever the pipeline queues next.
        # The submission closure is kept so a chaos fault surfacing on the
        # iteration future (which fires *before* train_step runs) can simply
        # re-book the identical window after recovery/backoff.
        begin_s = max(trainer_free_s, data_ready_s)
        if simulate:
            backbone_tokens = plan.module("backbone").bucket_tokens()
            encoder_tokens = (
                plan.modules["encoder"].bucket_tokens() if "encoder" in plan.modules else None
            )

            def submit_iteration():
                return self.trainer_handle.submit_timed(
                    "train_step",
                    step,
                    backbone_tokens,
                    encoder_tokens,
                    data_fetch_latency_s=data_fetch_latency,
                    hidden_fetch_s=entry.hidden_s,
                    step_tag=step,
                    earliest_start_s=begin_s,
                )
        else:
            def submit_iteration():
                return self.trainer_handle.submit_timed(
                    "consume_step", step, step_tag=step, earliest_start_s=begin_s
                )
        iteration_future = submit_iteration()
        if self.system.backend == "wallclock" and self.job.prefetch_depth:
            # Wallclock + prefetching: awaiting the iteration here would
            # serialize trainer compute against the pipeline's next pump and
            # forfeit the very overlap the backend exists to measure.  Defer
            # the await; the pipeline collects it after pumping prefetches.
            self._pending_iteration = (iteration_future, result, simulate, submit_iteration)
        else:
            self._await_iteration(iteration_future, result, simulate, submit_iteration)
        self.last_release_s = begin_s
        if self.job.tenant is not None and self.system.backend == "virtual":
            # Shared virtual-clock system: spawns fired at this boundary (or
            # by the tenant manager's service round) anchor their warm-up at
            # this job's own frontier, not wherever a co-tenant's simulation
            # left the global clock.
            self.fleet.spawn_anchor_s = begin_s

        # Release constructor staging for completed steps (double buffering).
        for constructor_handle in self.constructor_handles:
            try:
                constructor_handle.call("release_steps_below", step)
            except ActorTimeout:
                # Transient blip: the release is idempotent and the next
                # step's sweep covers this one (staging is keyed by step).
                pass
        self.step = step + 1
        self._history.append(result)
        # Elasticity housekeeping at the step boundary: finalize retirements
        # whose drain completed, fire queued spawns a freed placement can now
        # host, and sample live cluster utilization.
        self.fleet.reap_draining()
        if self.fleet.pending_spawn_count():
            planner: Planner = self.planner_handle.instance()
            self.fleet.retry_pending_spawns(
                self.plan_frontier(), planner, scaler=planner.scaler
            )
        self.utilization.observe(step, self.system.scheduler.cluster_utilization())
        if self.job.tenant is not None:
            self.utilization.observe_tenants(self.system.scheduler.tenant_shares())
        return result

    def _await_iteration(
        self, future: ActorFuture, result: StepResult, simulate: bool, resubmit
    ) -> None:
        """Drive the system until the trainer's booked window completes.

        Chaos faults raise from the future *before* ``train_step`` ran, so a
        dead trainer is restarted (state restored) and a blipped one waited
        out (:meth:`FleetRecovery.ride_out`), then the identical window is
        re-booked via ``resubmit``.
        """
        def settle():
            nonlocal future
            current = resubmit() if future is None else future
            future = None
            while not current.done():
                if self.system.tick() == 0:
                    break
            return current.result()  # surfaces trainer failures loudly

        iteration = self.recovery.ride_out(
            settle, self.trainer_handle, result.step, "trainer.iteration"
        )
        if simulate:
            result.iteration = iteration

    def collect_iteration(self) -> None:
        """Await a deferred trainer iteration (wallclock + prefetching only)."""
        pending, self._pending_iteration = self._pending_iteration, None
        if pending is not None:
            self._await_iteration(*pending)

    def plan_frontier(self) -> int:
        """First step whose plan is not yet applied to the loader buffers.

        Fleet spawns are stamped with it, not with the consume position: a
        mirror clones its canonical's *live* buffer, which under prefetch
        already holds the in-flight steps' plans.
        """
        return self.pipeline.plan_frontier()

    def run_training(self, num_steps: int) -> dict[str, float]:
        """Run and simulate several steps; return aggregate throughput / latency metrics.

        Besides per-step averages, the summary reports the run's *virtual
        wall time* — the span of the trainer's booked windows on the shared
        clock — and the total measured data stall, which reconcile as
        ``virtual_wall_time ≈ compute + stalls`` by construction of the
        discrete-event co-simulation.
        """
        iteration_times = []
        fetch_latencies = []
        hidden_total = 0.0
        exposed_total = 0.0
        stall_total = 0.0
        tokens = 0
        wall_start_s = self.virtual_time_s()
        for _ in range(num_steps):
            result = self.run_step(simulate=True)
            fetch_latencies.append(result.data_fetch_latency_s)
            hidden_total += result.hidden_fetch_s
            exposed_total += result.exposed_fetch_s
            stall_total += result.data_stall_s
            if result.iteration is not None:
                iteration_times.append(result.iteration.iteration_time_s)
                tokens += result.iteration.total_tokens
        fetch_total = sum(fetch_latencies)
        summary = {
            "steps": float(num_steps),
            "avg_fetch_latency_s": fetch_total / max(1, len(fetch_latencies)),
            "avg_iteration_time_s": sum(iteration_times) / max(1, len(iteration_times)),
            "total_tokens": float(tokens),
            "hidden_data_time_s": hidden_total,
            "exposed_data_time_s": exposed_total,
            "data_stall_time_s": stall_total,
            "virtual_wall_time_s": self.virtual_time_s() - wall_start_s,
            "hidden_data_fraction": hidden_total / fetch_total if fetch_total > 0 else 0.0,
        }
        if iteration_times:
            summary["throughput_tokens_per_s"] = tokens / sum(iteration_times)
        # Live placement telemetry: per-step sampled node utilization, with
        # peaks widened by the scheduler's lifetime reservation high-water
        # marks (a spawn that came and went between samples still shows).
        utilization = self.utilization.summary()
        scheduler_peaks = self.system.scheduler.peak_utilization_summary()
        for key in ("peak_node_cpu_utilization", "peak_node_memory_utilization"):
            utilization[key] = max(utilization[key], scheduler_peaks[key])
        summary.update(utilization)
        # Elasticity section: how the loader fleet moved during the run.
        summary.update(self.overlap.elasticity_summary())
        summary["loader_actors"] = float(self.fleet.total_members())
        summary["peak_loader_actors"] = float(self.fleet.peak_members())
        # Multi-tenant runs additionally report this tenant's weighted
        # fair-share position on the shared scheduler.
        tenant = self.job.tenant
        if tenant is not None:
            share = self.system.scheduler.tenant_shares().get(tenant)
            if share is not None:
                summary["tenant_cpu_cores"] = share["cpu_cores"]
                summary["tenant_cpu_share"] = share["share"]
                summary["tenant_fair_share_deficit"] = share["deficit"]
        return summary

    # -- runtime reconfiguration ----------------------------------------------------------------------------

    def set_mixture(self, mixture: MixtureSchedule, flush_pending: bool = False) -> None:
        """Install (or replace) the data mixture schedule at runtime.

        Rebuilds the Planner's strategy with the new schedule and re-arms the
        mixture-driven AutoScaler, supporting curriculum-style schedule swaps
        without redeploying the data plane.

        With ``prefetch_depth>=1``, steps already planned in flight were
        sampled under the *old* mixture.  ``flush_pending=True`` flushes
        those not-yet-delivered plans (cancelling their queued work,
        truncating the plan history and deterministically replaying loader
        state back to the delivered prefix) so every step from the current
        one onward is re-planned under the new mixture — byte-identical to a
        depth-0 run that switched mixtures at the same step.  The default
        keeps the old behaviour: in-flight steps deliver under the old
        mixture and only not-yet-planned steps see the new one.

        A mixture naming a source outside the catalog raises
        :class:`ConfigurationError` before anything is flushed or installed.
        """
        check_mixture_sources(mixture, self.catalog)
        if flush_pending:
            self.pipeline.flush()
        planner: Planner = self.planner_handle.instance()
        if self.degradation is not None:
            # Renormalize mode plans through the controller's catch-up-aware
            # wrapper; the new schedule becomes its nominal base.
            self.degradation.rebase(mixture)
            mixture = self.degradation.schedule
        planner.mixture = mixture
        planner.strategy = self.job.build_strategy(mixture)
        if self.job.enable_autoscaler:
            planner.scaler = MixtureDrivenScaler(self.partition_plan)

    # -- whole-run durability -----------------------------------------------------------------------------

    def delivery_manifest(self, step: int) -> dict | None:
        """The persisted delivered-batch manifest for ``step`` (or None)."""
        return self.manifests.load(step)

    def delivery_audit(self) -> dict:
        """Exactly-once delivery audit (see :meth:`DeliveryManifests.audit`)."""
        return self.manifests.audit()

    def save_checkpoint(self) -> int:
        """Persist the whole control plane to the checkpoint store.

        Transparent to the live run: steps in flight stay staged and are
        consumed as if nothing happened.  Writes one ``run`` entry for the
        consume position (:func:`~repro.core.durability.save_run_checkpoint`)
        out of what the fault manager and the store already hold — per loader
        the newest differential checkpoint below it, the Planner
        cut to it — from which :meth:`restore` resumes the run at the returned
        step with byte-identical batches, at a cost flat in run length.
        """
        step = self.step
        if not self.pipeline.inflight():
            # Between steps with nothing in flight (always so at depth 0) every
            # delivered plan (<= step - 1) is fully applied and nothing newer
            # has started: force the baselines to exactly that point, so the
            # entry needs no replay.
            self.recovery.checkpoint_members(step - 1, force=True)
        save_run_checkpoint(self.checkpoint_store, step, self.recovery, self.pipeline.mixtures())
        return step

    @classmethod
    def restore(
        cls,
        job: TrainingJobSpec,
        checkpoint_store: CheckpointStore,
        catalog: SourceCatalog | None = None,
        filesystem: SimulatedFileSystem | None = None,
        cluster: ClusterSpec | None = None,
    ) -> "MegaScaleData":
        """Redeploy ``job`` and resume from the newest whole-run checkpoint.

        The checkpoint is loaded into the fresh deployment
        (:func:`~repro.core.durability.load_run_checkpoint`: ``planner/plans``
        is cut to the saved position — so a run killed without ``shutdown()``
        restores like a cleanly stopped one — and each loader is rebuilt from
        the differential checkpoint the entry embeds plus a replay of the
        plan suffix) and every member gets a forced checkpoint baseline so
        post-restore failures keep bounded replay.  Continuation is
        byte-identical to the uninterrupted run: plans are a pure function of
        (buffer state, step, seed, mixture), all of which round-trip.
        """
        checkpoint_store = scoped_store(job, checkpoint_store)
        payload = latest_run_checkpoint(checkpoint_store)
        instance = cls.deploy(
            job,
            catalog=catalog,
            filesystem=filesystem,
            cluster=cluster,
            checkpoint_store=checkpoint_store,
        )
        if payload.get("mixture") is not None:
            instance.set_mixture(MixtureSchedule.from_descriptor(payload["mixture"]))
        instance.pipeline.mixture_swaps = [
            (first_step, MixtureSchedule.from_descriptor(recipe))
            for first_step, recipe in payload["mixture_swaps"]
        ]
        step = instance.step = instance.pipeline.next_issue_step = payload["step"]
        load_run_checkpoint(payload, instance.recovery)
        instance.recovery.checkpoint_members(step - 1, force=True)
        return instance

    # -- operational adaptability -------------------------------------------------------------------------

    def handle_reshard(self, notification: ReshardNotification) -> ReshardReport:
        """React to a trainer topology change (elastic resharding)."""
        # In-flight prefetched steps were planned for the old topology;
        # flush them so the pipeline restarts from the current step.
        self.pipeline.flush()
        constructors = {
            handle.name: handle.instance() for handle in self.constructor_handles
        }
        report = self.resharder.apply(notification, constructors)
        self.tree = self.resharder.tree

        self.constructor_handles = resize_constructors(
            self.system, self.job, self.constructor_handles, report, notification.new_mesh
        )
        planner: Planner = self.planner_handle.instance()
        planner.set_tree(self.tree)
        self.trainer_handle.instance().simulator = TrainingSimulator(
            self.job.model(), self.tree.mesh, gpu=self.job.gpu_spec or GpuSpec()
        )
        return report

    # -- reporting ------------------------------------------------------------------------------------------

    def memory_report(self) -> dict[str, int]:
        """Live actor memory per node plus the cluster total."""
        report = dict(self.system.memory_by_node())
        report["total"] = sum(report.values())
        return report

    def history(self) -> list[StepResult]:
        return list(self._history)

    def shutdown(self) -> None:
        """Stop every actor of this job and release their resources.

        Idempotent: in-flight prefetch work is abandoned exactly once (no
        loader is rewound; the checkpoint store is cut back to the delivered
        prefix, as a flush would leave it) and a second call is a no-op, so
        teardown paths (tests, context managers, error handlers) can all call
        it safely.  With a namespace set (multi-tenant shared system) only
        *this* job's actors are cancelled and stopped — co-tenants are
        untouched.
        """
        if self._shutdown_done:
            return
        self._shutdown_done = True
        self._pending_iteration = None
        self.pipeline.cancel()
        known = [
            handle.name
            for handle in self.loader_handles + self.constructor_handles + [self.planner_handle]
        ]
        # Also cover actors not tracked on the facade (shadows, replaced
        # primaries after a failover) — scoped to this job's namespace.
        owned = [
            name
            for name in dict.fromkeys(known + self.system.list_actor_names())
            if self.job.owns(name)
        ]
        if self.job.namespace:
            for name in owned:
                self.system.cancel_pending(name)
        else:
            self.system.cancel_pending()
        for name in owned:
            try:
                self.system.stop_actor(name)
            except ReproError:  # already stopped, or failed and gone
                continue

    # -- fleet: routing, scaling, recovery ------------------------------------------------------------------

    def apply_scaling_plan(self, plan: LoadingPlan) -> None:
        """Consume a plan's piggybacked ScalingPlan at the step boundary."""
        scaling = plan.scaling
        if scaling is None or scaling.is_empty():
            return
        planner: Planner = self.planner_handle.instance()
        self.fleet.apply_scaling(scaling, plan.step, planner, scaler=planner.scaler)

    def scale_source(self, source: str, target_actors: int) -> int:
        """Manually resize one source's loader fleet; returns the new count.

        Applies the same spawn/retire machinery the AutoScaler's directives
        use (placement-gated, deterministic bootstrap replay, drain-mode
        retirement), without involving the scaler's streak logic.
        """
        if source not in self.catalog:
            raise ConfigurationError(f"unknown source {source!r}")
        if target_actors < 1:
            raise ConfigurationError("target_actors must be >= 1")
        planner: Planner = self.planner_handle.instance()
        directive = LoaderScalingDirective(
            source=source,
            target_actors=target_actors,
            target_workers_per_actor=0,
            reason="manual scale_source",
        )
        step = self.plan_frontier()
        self.fleet.apply_scaling(
            ScalingPlan(step=step, directives=[directive]), step, planner, scaler=None
        )
        return self.fleet.member_count(source)

    def recover_fleet_member(self, handle, at_step: int):
        """Promote/restart a failed fleet member and resync its buffer state.

        The one recovery entry point of the step driver and every heal
        path; see :meth:`FleetRecovery.recover_member` for the policy.
        """
        return self.recovery.recover_member(handle, at_step)

    def _on_fleet_change(self, change) -> None:
        """Mirror fleet mutations onto the timeline and the overlap ledger."""
        self.system.timeline.record(
            component=change.actor,
            name=change.kind,
            start=change.at_s,
            duration=0.0,
            role=FLEET_ROLE,
            step=change.step,
            source=change.source,
            node=change.node,
        )
        self.overlap.add_fleet_event(change)
        if change.kind == "spawn":
            self.recovery.baseline_spawn(change.actor, change.step)


def fetch_bound_gpu_spec(job: TrainingJobSpec, compute_fraction: float = 0.42) -> GpuSpec:
    """Calibrate a :class:`GpuSpec` that makes ``job`` fetch-bound.

    Probes one depth-0 step under the default GPU to measure the job's
    fetch chain and compute window, then scales the GPU's throughput so one
    iteration's compute window is ``compute_fraction`` of the fetch chain —
    a single iteration cannot hide a fetch.  Used by the fetch-bound
    benchmarks/tests that assert deeper pipelines hide strictly more.
    """
    if compute_fraction <= 0:
        raise ConfigurationError("compute_fraction must be > 0")
    probe = MegaScaleData.deploy(replace(job, prefetch_depth=0, gpu_spec=None))
    try:
        result = probe.run_step(simulate=True)
        fetch_s = result.data_fetch_latency_s
        compute_s = result.iteration.iteration_time_s - result.iteration.exposed_fetch_time_s
    finally:
        probe.shutdown()
    if fetch_s <= 0 or compute_s <= 0:
        raise ConfigurationError(
            f"cannot calibrate a fetch-bound GPU: probe step measured "
            f"fetch={fetch_s!r}s, compute={compute_s!r}s"
        )
    scale = compute_s / (compute_fraction * fetch_s)
    default = GpuSpec()
    return replace(default, peak_flops=default.peak_flops * scale)
