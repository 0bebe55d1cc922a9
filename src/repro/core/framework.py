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

With ``prefetch_depth=0`` (the default) the workflow runs synchronously, one
step at a time.  With ``prefetch_depth>=1`` the facade routes steps through
the asynchronous :class:`~repro.core.step_pipeline.StepPipeline`, which keeps
that many future steps in flight behind the trainer.

Trainer and data plane co-simulate on the actor system's shared
:class:`~repro.actors.runtime.VirtualClock`: the trainer is a
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

from dataclasses import dataclass, field, replace

from repro.actors.actor import ActorFuture, ActorState
from repro.actors.node import NodeKind, ResourceSpec
from repro.actors.runtime import ActorSystem, ClusterSpec
from repro.core.autoscaler import (
    MixtureDrivenScaler,
    PartitionPlan,
    ResourceBudget,
    SourceAutoPartitioner,
)
from repro.core.assembly import PreparedColumns
from repro.core.checkpoint import (
    CheckpointStore,
    InMemoryCheckpointStore,
    SqliteCheckpointStore,
)
from repro.core.cost_model import LANE_MODELS, DataPlaneLatencyProvider
from repro.core.data_constructor import DataConstructor, RankDelivery
from repro.core.dgraph import expected_quotas
from repro.core.fault_tolerance import FaultToleranceConfig, FaultToleranceManager
from repro.core.columns import SampleColumns
from repro.core.loader_fleet import LoaderFleet
from repro.core.place_tree import ClientPlaceTree
from repro.core.planner import Planner, PlanTimings
from repro.core.plans import LoadingPlan
from repro.core.resharding import ElasticResharder, ReshardNotification, ReshardReport
from repro.core.source_loader import SourceLoader
from repro.core.strategies import StrategyConfig, make_strategy
from repro.data.mixture import MixtureSchedule
from repro.data.samples import SampleMetadata
from repro.data.sources import SourceCatalog
from repro.data.synthetic import (
    build_source_catalog,
    coyo700m_like_spec,
    navit_like_spec,
)
from repro.errors import ActorDead, ActorTimeout, ConfigurationError, PlanError, StorageError
from repro.metrics.report import ClusterUtilizationTracker
from repro.metrics.timeline import FLEET_ROLE, OverlapLedger, Timeline
from repro.parallelism.mesh import DeviceMesh
from repro.storage.filesystem import SimulatedFileSystem
from repro.training.models import MODEL_ZOO, BackboneConfig, EncoderConfig, VLMConfig
from repro.training.simulator import GpuSpec, IterationResult, TrainerActor, TrainingSimulator
from repro.utils.units import GIB

#: Checkpoint-store namespace for whole-run control-plane checkpoints.
RUN_NAMESPACE = "run"

#: Checkpoint-store namespace for per-step delivered-batch manifests
#: (step, constructor, sample ids) — the exactly-once delivery audit trail.
MANIFEST_NAMESPACE = "delivery/manifests"

#: Degraded-mode policies when a source's loaders are all dead or blacked out:
#: "strict" waits faults out (byte-identical batches, fail-stop past the wait
#: budget); "renormalize" re-plans over surviving sources and repays the lost
#: quota deterministically once the source returns.
DEGRADED_MODES = ("strict", "renormalize")


class _ReplanStep(Exception):
    """Internal signal: the current step must be re-planned (source degraded)."""


@dataclass
class TrainingJobSpec:
    """User-facing description of a training job and its data plane."""

    # Parallelism.
    pp: int = 1
    dp: int = 2
    cp: int = 1
    tp: int = 1
    gpus_per_node: int = 16

    # Model.
    backbone: str = "Llama-12B"
    encoder: str | None = "ViT-2B"

    # Batching.
    samples_per_dp_step: int = 32
    num_microbatches: int = 4
    max_sequence_length: int = 8192

    # Data.
    dataset_group: str = "navit_data"
    num_sources: int = 8
    samples_per_source: int = 256
    mixture: MixtureSchedule | None = None

    # Orchestration.
    strategy: str = "hybrid"
    balance_method: str = "greedy"
    broadcast_tp: bool = True
    broadcast_cp: bool = False
    group_size: int | None = None

    # Deployment.
    cpu_pods: int = 1
    enable_shadow_loaders: bool = False
    enable_autoscaler: bool = True
    deferred_transforms: tuple[str, ...] = ()
    seed: int = 0

    #: Apply piggybacked ScalingPlan directives end to end: spawn/retire
    #: loader actors through the placement scheduler at step boundaries.
    #: False keeps the pre-elastic behaviour (directives are only logged),
    #: which is the frozen-fleet baseline of the elasticity benchmarks.
    elastic_fleet: bool = True

    #: Loader worker-pool timing model: "capacity_split" (pool throughput
    #: divides across concurrently in-flight step tickets, stretching each
    #: ticket under contention) or "amortized" (the idealized PR-2 model
    #: where every ticket sees the whole pool, kept for A/B runs).
    lane_model: str = "capacity_split"

    #: Virtual provisioning latency booked on every lane of a loader spawned
    #: mid-run by the elastic fleet (0 = instant warm-up).
    spawn_warmup_s: float = 0.0

    #: How many future steps the data plane keeps in flight behind the
    #: trainer.  0 = fully synchronous pull workflow; >=1 enables the
    #: asynchronous prefetching StepPipeline.
    prefetch_depth: int = 0

    #: Accelerator model for the trainer simulator (None = the default
    #: :class:`~repro.training.simulator.GpuSpec`).  Benchmarks use this to
    #: dial the compute/fetch ratio (e.g. fetch-bound jobs).
    gpu_spec: GpuSpec | None = None

    #: Event-engine dispatcher: "indexed" (O(log A) heap dispatch, the
    #: default) or "linear" (the O(A) scan reference, kept for A/B
    #: benchmarks and equivalence tests — both execute identical orders).
    dispatcher: str = "indexed"

    #: Opt-in bounded telemetry for long runs: caps the actor call log and
    #: switches the system timeline to the bounded/aggregating mode, so
    #: per-event bookkeeping stops growing O(E) with executed events while
    #: OverlapLedger reconciliation keeps working from the online aggregate.
    bounded_telemetry: bool = False

    #: Retained event/call-record window in bounded-telemetry mode.
    telemetry_window: int = 4096

    #: Bounded-replay window: the differential checkpoint interval for loader
    #: state and the number of plans the Planner keeps in memory.  Recovery
    #: restores the latest consistent checkpoint and replays at most this
    #: many plan suffix steps, so restore cost is flat in run length.
    replay_window: int = 50

    #: Control-plane checkpoint persistence: "memory" (dict-backed, the
    #: simulation default) or "sqlite" (a real stdlib-sqlite3 database via
    #: ``storage/kvstore``; payloads round-trip through pickle).
    checkpoint_backend: str = "memory"

    #: Actor execution backend: "virtual" (discrete-event virtual-clock
    #: co-simulation, the deterministic default) or "wallclock" (real
    #: thread-parallel actor lanes behind the same API — see
    #: :mod:`repro.actors.wallclock`; batches stay byte-identical, timing is
    #: measured from real completions).
    backend: str = "virtual"

    #: Real seconds per virtual second under ``backend="wallclock"``: modelled
    #: latencies are slept for ``duration * wallclock_time_scale`` so a
    #: simulated hour compresses into benchmark-friendly wall time.  Ignored
    #: by the virtual backend.
    wallclock_time_scale: float = 1.0

    #: Real-time backstop for a single ``tick()`` under the wallclock backend:
    #: a tick that cannot finish draining within this many real seconds raises
    #: ``TimeoutError`` instead of hanging the driver.  Long chaos soaks with
    #: large stragglers or time scales may need a higher ceiling.  Ignored by
    #: the virtual backend.
    wallclock_tick_timeout_s: float = 60.0

    #: What the data plane does when every loader of a source is dead or
    #: blacked out and recovery keeps failing: "strict" (default) waits the
    #: fault out with jittered backoff — batches stay byte-identical to a
    #: failure-free run, the outage shows up purely as stall — and fail-stops
    #: once the wait budget is exhausted; "renormalize" re-plans over the
    #: surviving sources (mixture weights renormalized, decision logged to
    #: the OverlapLedger) and deterministically repays the lost source's
    #: sample quota once it returns.
    degraded_mode: str = "strict"

    #: Tenant namespace for multi-job deployments sharing one ActorSystem:
    #: every actor name, GCS key and checkpoint-store namespace this job
    #: creates is prefixed with ``"<namespace>/"`` so concurrent jobs never
    #: collide on shared control-plane state.  "" (the default) keeps the
    #: unscoped single-tenant names.
    namespace: str = ""

    def __post_init__(self) -> None:
        if self.samples_per_dp_step < self.num_microbatches:
            raise ConfigurationError(
                "samples_per_dp_step must be >= num_microbatches so every microbatch is non-empty"
            )
        if self.prefetch_depth < 0:
            raise ConfigurationError("prefetch_depth must be >= 0")
        if self.dispatcher not in ActorSystem.DISPATCHERS:
            raise ConfigurationError(
                f"unknown dispatcher {self.dispatcher!r}; "
                f"expected one of {ActorSystem.DISPATCHERS}"
            )
        if self.telemetry_window < 1:
            raise ConfigurationError("telemetry_window must be >= 1")
        if self.lane_model not in LANE_MODELS:
            raise ConfigurationError(
                f"unknown lane_model {self.lane_model!r}; expected one of {LANE_MODELS}"
            )
        if self.spawn_warmup_s < 0:
            raise ConfigurationError("spawn_warmup_s must be >= 0")
        if self.replay_window < 1:
            raise ConfigurationError("replay_window must be >= 1")
        if self.checkpoint_backend not in ("memory", "sqlite"):
            raise ConfigurationError(
                f"unknown checkpoint_backend {self.checkpoint_backend!r}; "
                "expected 'memory' or 'sqlite'"
            )
        if self.backend not in ActorSystem.BACKENDS:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; "
                f"expected one of {ActorSystem.BACKENDS}"
            )
        if self.wallclock_time_scale <= 0:
            raise ConfigurationError("wallclock_time_scale must be > 0")
        if self.wallclock_tick_timeout_s <= 0:
            raise ConfigurationError("wallclock_tick_timeout_s must be > 0")
        if self.degraded_mode not in DEGRADED_MODES:
            raise ConfigurationError(
                f"unknown degraded_mode {self.degraded_mode!r}; "
                f"expected one of {DEGRADED_MODES}"
            )
        if self.backbone not in MODEL_ZOO:
            raise ConfigurationError(f"unknown backbone {self.backbone!r}")
        if self.encoder is not None and self.encoder not in MODEL_ZOO:
            raise ConfigurationError(f"unknown encoder {self.encoder!r}")
        if self.namespace and (
            self.namespace != self.namespace.strip("/") or " " in self.namespace
        ):
            raise ConfigurationError(
                f"namespace {self.namespace!r} must not contain spaces or "
                "leading/trailing slashes"
            )

    # -- namespacing -------------------------------------------------------------------

    @property
    def tenant(self) -> str | None:
        """Scheduler tenant tag: the namespace, or ``None`` when unscoped."""
        return self.namespace or None

    def scoped(self, name: str) -> str:
        """Prefix ``name`` with this job's namespace (identity when unscoped)."""
        return f"{self.namespace}/{name}" if self.namespace else name

    def unscoped(self, name: str) -> str:
        """Strip this job's namespace prefix from ``name`` if present."""
        prefix = f"{self.namespace}/"
        if self.namespace and name.startswith(prefix):
            return name[len(prefix):]
        return name

    def owns(self, name: str) -> bool:
        """Whether ``name`` belongs to this job's namespace."""
        return not self.namespace or name.startswith(f"{self.namespace}/")

    # -- derived -----------------------------------------------------------------------

    def device_mesh(self) -> DeviceMesh:
        return DeviceMesh(
            pp=self.pp, dp=self.dp, cp=self.cp, tp=self.tp, gpus_per_node=self.gpus_per_node
        )

    def model(self) -> VLMConfig | BackboneConfig:
        backbone = MODEL_ZOO[self.backbone]()
        if self.encoder is None:
            return backbone
        encoder = MODEL_ZOO[self.encoder]()
        assert isinstance(encoder, EncoderConfig)
        assert isinstance(backbone, BackboneConfig)
        return VLMConfig(encoder=encoder, backbone=backbone)

    def global_samples_per_step(self) -> int:
        return self.samples_per_dp_step * self.dp

    @classmethod
    def vlm_example(cls) -> "TrainingJobSpec":
        """A small VLM job usable in examples and quickstart docs."""
        return cls(pp=1, dp=2, cp=1, tp=2, num_sources=6, samples_per_source=128,
                   samples_per_dp_step=16, num_microbatches=4)

    @classmethod
    def text_example(cls) -> "TrainingJobSpec":
        """A pure-text job (no encoder)."""
        return cls(encoder=None, dataset_group="coyo700m", strategy="backbone_balance",
                   num_sources=4, samples_per_source=128, samples_per_dp_step=16)


@dataclass
class StepResult:
    """Everything produced by one pull-workflow step."""

    step: int
    plan: LoadingPlan
    plan_timings: PlanTimings
    loader_wall_clock_s: float
    loader_transform_s: float
    constructor_collate_s: float
    data_fetch_latency_s: float
    deliveries: dict[int, RankDelivery]
    backbone_assignments: list[list[list[SampleMetadata]]]
    encoder_assignments: list[list[list[SampleMetadata]]] | None = None
    iteration: IterationResult | None = None
    #: Portion of the fetch latency hidden behind compute, *measured* on the
    #: virtual clock (always 0 on the synchronous path).
    hidden_fetch_s: float = 0.0
    #: Whether the step was served from the prefetch pipeline.
    prefetched: bool = False
    #: Measured trainer wait for this step's data (virtual seconds the
    #: trainer sat idle between its previous iteration and data readiness).
    data_stall_s: float = 0.0

    @property
    def exposed_fetch_s(self) -> float:
        """Fetch latency left on the iteration critical path."""
        return max(0.0, self.data_fetch_latency_s - self.hidden_fetch_s)

    def fetched_bytes(self) -> int:
        return sum(delivery.total_payload_bytes() for delivery in self.deliveries.values())


class DegradationController:
    """Renormalize-mode policy: drop dark sources, repay their quota later.

    Owns the degraded-mode bookkeeping for one job:

    - **dark set** — sources whose loaders are all dead or blacked out and
      whose recovery keeps failing.  Dark sources are excluded from the
      Planner's gather (no RPCs are issued to them), so ``DGraph.mix``
      renormalizes the mixture over the survivors automatically.
    - **deficit ledger** — per-source integer sample debt.  Every observed
      plan is compared against the quota the *nominal* mixture would have
      allocated (``expected_quotas``); a dark source accrues a positive
      deficit, the survivors that over-drew accrue the matching negative
      one, so the ledger always sums to zero.
    - **catch-up schedule** — the controller exposes a
      :class:`MixtureSchedule` wrapping the nominal one; while deficits are
      outstanding its per-step weights move capped integer quota from the
      over-drawn sources back to the owed ones.  Because the catch-up
      weights are exact quota fractions, largest-remainder rounding in
      ``mix`` reproduces them sample-exactly and the ledger drains to zero
      in a deterministic, bounded number of steps.

    The controller is late-bound to its :class:`MegaScaleData` instance
    (``data``) because the wrapped schedule must exist before the Planner is
    spawned.
    """

    def __init__(self, job: "TrainingJobSpec", source_names: list[str]) -> None:
        self.job = job
        self.source_names = list(source_names)
        self.base = job.mixture or MixtureSchedule.uniform(self.source_names)
        self.schedule = MixtureSchedule(
            self._weights_at,
            self.source_names,
            description=f"degradable({self.base.description})",
        )
        self.data: "MegaScaleData | None" = None
        #: source -> step it went dark at.
        self.dark: dict[str, int] = {}
        #: source -> samples owed (+) / over-drawn (-); sums to zero.
        self.deficits: dict[str, int] = {name: 0 for name in self.source_names}
        #: step -> that step's deficit deltas, kept so flushed/re-planned
        #: steps can be rewound exactly (bounded; pruned past the window).
        self._step_deltas: dict[int, dict[str, int]] = {}
        #: Chronological degrade/restore decisions (for tests and reports).
        self.decisions: list[dict] = []

    # -- state ------------------------------------------------------------------

    @property
    def active(self) -> bool:
        return bool(self.dark) or any(self.deficits.values())

    @property
    def target(self) -> int:
        return self.job.global_samples_per_step()

    def rebase(self, mixture: MixtureSchedule | None) -> None:
        """Adopt a new nominal mixture (runtime ``set_mixture`` swaps)."""
        self.base = mixture or MixtureSchedule.uniform(self.source_names)
        self.schedule.invalidate_weights_from(0)

    # -- mixture ----------------------------------------------------------------

    def _weights_at(self, step: int) -> dict[str, float]:
        base = self.base.weights_at(step)
        if not any(self.deficits.values()):
            return base
        desired = self._desired_quotas(base)
        return {name: desired[name] / self.target for name in desired}

    def _desired_quotas(self, base: dict[str, float]) -> dict[str, int]:
        """This step's per-source quota with capped catch-up transfers.

        Moves up to one nominal quota's worth of samples per step from the
        over-drawn (negative-deficit) sources to the owed ones; dark sources
        sit the exchange out.  The transfer nets to zero, so the quotas
        still sum to the step target and largest-remainder rounding in
        ``mix`` reproduces them exactly.
        """
        target = self.target
        expected = expected_quotas(base, target)
        owed = {
            name: debt
            for name, debt in self.deficits.items()
            if debt > 0 and name not in self.dark
        }
        lent = {
            name: min(-debt, expected.get(name, 0))
            for name, debt in self.deficits.items()
            if debt < 0 and name not in self.dark
        }
        pool = min(sum(owed.values()), sum(lent.values()))
        desired = dict(expected)
        take = pool
        for name in sorted(owed):
            if take <= 0:
                break
            amount = min(owed[name], take)
            desired[name] = desired.get(name, 0) + amount
            take -= amount
        give = pool
        for name in sorted(lent):
            if give <= 0:
                break
            amount = min(lent[name], give)
            desired[name] = desired.get(name, 0) - amount
            give -= amount
        return desired

    # -- transitions ------------------------------------------------------------

    def degrade(self, sources: set[str], step: int) -> None:
        """Drop ``sources`` from planning and log the decision."""
        data = self.data
        fresh = [source for source in sources if source not in self.dark]
        for source in fresh:
            self.dark[source] = step
        if not fresh or data is None:
            return
        planner: Planner = data.planner_handle.instance()
        planner.set_excluded_sources(set(self.dark))
        for source in fresh:
            decision = {"kind": "degrade", "source": source, "step": step}
            self.decisions.append(decision)
            data.overlap.record_fleet_event(
                "degrade",
                step,
                data.system.clock.now_s,
                source,
                actor="",
                detail="all loaders unreachable; mixture renormalized",
            )

    def maybe_restore(self, step: int) -> list[str]:
        """Re-admit dark sources whose loaders answer heartbeats again.

        A returning source's loaders are rewound to the delivered prefix
        (checkpoint restore + plan-suffix replay) before they rejoin the
        gather set, so their buffers are byte-exact replicas of what an
        uninterrupted no-demand stretch would have left behind.
        """
        data = self.data
        if data is None or not self.dark:
            return []
        restored: list[str] = []
        for source in sorted(self.dark):
            handles = [
                handle
                for handle in data.loader_handles
                if data._member_source(handle) == source
            ]
            if not handles:
                continue
            # Members that died while the source was dark (a crash whose
            # recovery failed mid-outage) can never answer the probe; revive
            # them first — recovery failing again just means the blocking
            # fault has not cleared, so the source stays dark this round.
            try:
                for handle in handles:
                    if data.system.actor_state(handle.name) is not ActorState.RUNNING:
                        data.recover_fleet_member(handle, step)
            except (ActorDead, ActorTimeout, StorageError):
                continue
            handles = [
                handle
                for handle in data.loader_handles
                if data._member_source(handle) == source
            ]
            if all(data.fault_manager.probe_loader(handle) for handle in handles):
                restored.append(source)
                data._rewind_members(step, handles=handles)
        for source in restored:
            del self.dark[source]
            self.decisions.append({"kind": "restore", "source": source, "step": step})
            data.overlap.record_fleet_event(
                "restore",
                step,
                data.system.clock.now_s,
                source,
                actor="",
                detail="loaders healthy; quota catch-up begins",
            )
        if restored:
            planner: Planner = data.planner_handle.instance()
            planner.set_excluded_sources(set(self.dark))
        return restored

    # -- accounting -------------------------------------------------------------

    def observe_plan(self, plan: LoadingPlan) -> None:
        """Fold one generated plan into the deficit ledger.

        Only runs while the controller is active: in steady healthy state
        the nominal expectation and the actual allocation can legitimately
        differ (thin buffers cap quotas) and must not accrue phantom debt.
        """
        if not self.active:
            self._step_deltas.pop(plan.step, None)
            return
        if plan.step in self._step_deltas:
            # The same step re-planned without an explicit invalidate —
            # replace its contribution instead of double-counting.
            self.invalidate_from(plan.step)
        base = self.base.weights_at(plan.step)
        expected = expected_quotas(base, self.target)
        delta: dict[str, int] = {}
        for name in self.source_names:
            diff = expected.get(name, 0) - len(plan.source_demands.get(name, ()))
            if diff:
                delta[name] = diff
        self._step_deltas[plan.step] = delta
        for name, diff in delta.items():
            self.deficits[name] += diff
        floor = plan.step - 256
        for stale in [s for s in self._step_deltas if s < floor]:
            del self._step_deltas[stale]

    def invalidate_from(self, step: int) -> None:
        """Rewind observations for steps ``>= step`` (pipeline flush/re-plan)."""
        for observed in sorted(s for s in self._step_deltas if s >= step):
            for name, diff in self._step_deltas[observed].items():
                self.deficits[name] -= diff
            del self._step_deltas[observed]
        self.schedule.invalidate_weights_from(step)


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
        #: fault-tolerance manager and whole-run save/restore.
        self.checkpoint_store = fault_manager.checkpoint_store
        self.resharder = ElasticResharder(tree)
        # The data plane and the trainer co-simulate on the actor system's
        # virtual clock: results of deferred calls determine how long each
        # call occupied its actor (see DataPlaneLatencyProvider).  On a shared
        # (multi-tenant) system the first job installs the provider and later
        # tenants reuse it, so one lane model governs the whole pool.
        if system.latency_provider is None:
            system.latency_provider = DataPlaneLatencyProvider(lane_model=job.lane_model)
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
        self._step = 0
        self._history: list[StepResult] = []
        self._shutdown_done = False
        self.overlap = OverlapLedger(tenant=job.tenant)
        #: Renormalize-mode policy (None under degraded_mode="strict").
        self.degradation = degradation
        if degradation is not None:
            degradation.data = self
        #: Delivery manifests awaiting durability (non-empty only while the
        #: checkpoint store is down); drained in order at later spills.
        self._manifest_backlog: list[tuple[int, dict]] = []
        #: Virtual instant the latest consumed step began on the trainer —
        #: the issue instant for steps the pipeline queues at that consume.
        self._last_release_s = 0.0
        #: Deferred trainer iteration (wallclock + pipeline only): the await
        #: is postponed until after the pipeline pumps prefetch work, so real
        #: trainer compute overlaps the next steps' fetches on lane threads.
        self._pending_iteration: tuple[ActorFuture, StepResult, bool] | None = None
        if job.prefetch_depth > 0:
            from repro.core.step_pipeline import StepPipeline

            self.pipeline: "StepPipeline | None" = StepPipeline(
                self, prefetch_depth=job.prefetch_depth
            )
        else:
            self.pipeline = None

    @property
    def simulator(self) -> TrainingSimulator:
        """The trainer actor's iteration simulator (settable for resharding)."""
        return self.trainer_handle.instance().simulator

    @simulator.setter
    def simulator(self, simulator: TrainingSimulator) -> None:
        self.trainer_handle.instance().simulator = simulator

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
        filesystem = filesystem or SimulatedFileSystem()
        if checkpoint_store is None:
            if job.checkpoint_backend == "sqlite":
                checkpoint_store = SqliteCheckpointStore(filesystem=filesystem)
            else:
                checkpoint_store = InMemoryCheckpointStore()
        checkpoint_store = cls._scoped_store(job, checkpoint_store)
        if catalog is None:
            catalog = cls._build_catalog(job, filesystem)
        mesh = job.device_mesh()
        tree = ClientPlaceTree(mesh)
        if system is not None:
            cluster = cluster or system.cluster
        else:
            cluster = cluster or ClusterSpec(
                accelerator_nodes=max(1, mesh.num_nodes), cpu_pods=job.cpu_pods
            )
            system = ActorSystem(
                cluster,
                dispatcher=job.dispatcher,
                call_log_limit=job.telemetry_window if job.bounded_telemetry else None,
                backend=job.backend,
                time_scale=job.wallclock_time_scale,
                wallclock_tick_timeout_s=job.wallclock_tick_timeout_s,
            )
            if job.bounded_telemetry:
                # Swap in the bounded/aggregating timeline before any actor is
                # deployed, so every recorded event feeds the online overlap
                # aggregate and per-event memory stays O(telemetry_window).
                system.timeline = Timeline(
                    max_events=job.telemetry_window, aggregate_overlap=True
                )

        partition_plan = cls._partition_sources(job, catalog, cluster)
        loader_handles = cls._spawn_loaders(job, catalog, filesystem, system, partition_plan)
        constructor_handles = cls._spawn_constructors(job, mesh, system)
        degradation = (
            DegradationController(job, [source.name for source in catalog])
            if job.degraded_mode == "renormalize"
            else None
        )
        planner_handle = cls._spawn_planner(
            job,
            tree,
            system,
            partition_plan,
            checkpoint_store,
            # Renormalize mode wraps an *explicit* job mixture with the
            # catch-up-aware schedule here; mixture-less jobs keep a bare
            # planner so _ensure_sized_strategy installs the bounded sampling
            # strategy (with the degradation schedule as its mixture) exactly
            # like the non-degradable default path.
            mixture=degradation.schedule
            if degradation is not None and job.mixture is not None
            else None,
        )

        planner: Planner = planner_handle.instance()
        planner.register_loaders(loader_handles)

        fault_manager = FaultToleranceManager(
            system,
            FaultToleranceConfig(loader_checkpoint_interval=job.replay_window),
            checkpoint_store=checkpoint_store,
        )
        if job.enable_shadow_loaders:
            cls._spawn_shadow_loaders(
                job, catalog, filesystem, system, partition_plan, loader_handles, fault_manager
            )
        return cls(
            job=job,
            system=system,
            filesystem=filesystem,
            catalog=catalog,
            partition_plan=partition_plan,
            planner_handle=planner_handle,
            loader_handles=loader_handles,
            constructor_handles=constructor_handles,
            tree=tree,
            fault_manager=fault_manager,
            degradation=degradation,
        )

    @staticmethod
    def _scoped_store(job: TrainingJobSpec, store: CheckpointStore) -> CheckpointStore:
        """Tenant-scope a shared checkpoint store (idempotent per namespace)."""
        from repro.core.checkpoint import NamespacedCheckpointStore

        if not job.namespace:
            return store
        if isinstance(store, NamespacedCheckpointStore) and store.prefix == job.namespace:
            return store
        return NamespacedCheckpointStore(store, job.namespace)

    @staticmethod
    def _build_catalog(job: TrainingJobSpec, filesystem: SimulatedFileSystem) -> SourceCatalog:
        if job.dataset_group == "coyo700m":
            spec = coyo700m_like_spec(
                num_sources=job.num_sources,
                samples_per_source=job.samples_per_source,
                seed=job.seed,
            )
        else:
            spec = navit_like_spec(
                num_sources=job.num_sources,
                samples_per_source=job.samples_per_source,
                seed=job.seed,
            )
        return build_source_catalog(spec, filesystem)

    @staticmethod
    def _partition_sources(
        job: TrainingJobSpec, catalog: SourceCatalog, cluster: ClusterSpec
    ) -> PartitionPlan:
        total_cpu = (
            cluster.accelerator_nodes * cluster.accelerator_resources.cpu_cores
            + cluster.cpu_pods * cluster.cpu_pod_resources.cpu_cores
        )
        total_memory = (
            cluster.accelerator_nodes * cluster.accelerator_resources.memory_bytes
            + cluster.cpu_pods * cluster.cpu_pod_resources.memory_bytes
        )
        budget = ResourceBudget(
            cpu_cores=total_cpu * 0.5, memory_bytes=int(total_memory * 0.5)
        )
        partitioner = SourceAutoPartitioner()
        return partitioner.partition(catalog, budget)

    @staticmethod
    def _spawn_loaders(
        job: TrainingJobSpec,
        catalog: SourceCatalog,
        filesystem: SimulatedFileSystem,
        system: ActorSystem,
        partition_plan: PartitionPlan,
    ):
        handles = []
        for source in catalog:
            config = partition_plan.config_for(source.name)
            for actor_index in range(config.num_actors):
                name = job.scoped(f"loader/{source.name}/{actor_index}")
                handle = system.create_actor(
                    lambda src=source, idx=actor_index, cfg=config: SourceLoader(
                        source=src,
                        filesystem=filesystem,
                        num_workers=cfg.workers_per_actor,
                        buffer_size=max(64, job.samples_per_dp_step * job.dp),
                        shard_index=idx,
                        shard_count=cfg.num_actors,
                        deferred_transforms=set(job.deferred_transforms) or None,
                    ),
                    name=name,
                    cpu_cores=config.workers_per_actor * 1.0,
                    memory_bytes=config.estimated_memory_bytes,
                    prefer=NodeKind.ACCELERATOR,
                    # Loaders pipeline one prefetch ticket per lane: while a
                    # ticket's chunks transform, the next step's ticket can
                    # proceed concurrently (tf.data-style stage decoupling),
                    # bounded by how many steps the pipeline keeps in flight.
                    concurrency=job.prefetch_depth + 1,
                    tenant=job.tenant,
                )
                handles.append(handle)
        return handles

    @staticmethod
    def _spawn_constructors(job: TrainingJobSpec, mesh: DeviceMesh, system: ActorSystem):
        handles = []
        for dp_index in range(mesh.size("DP")):
            name = job.scoped(f"constructor/dp{dp_index}")
            handle = system.create_actor(
                lambda idx=dp_index: DataConstructor(
                    bucket_index=idx,
                    mesh=mesh,
                    dp_index=idx,
                    max_sequence_length=job.max_sequence_length,
                    broadcast_tp=job.broadcast_tp,
                    broadcast_cp=job.broadcast_cp,
                    staging_capacity=max(2, job.prefetch_depth + 2),
                    # The sync workflow keeps legacy random step access;
                    # prefetching requires strict in-order consumption.
                    enforce_delivery_order=job.prefetch_depth > 0,
                ),
                name=name,
                cpu_cores=2.0,
                memory_bytes=2 * GIB,
                prefer=NodeKind.ACCELERATOR,
                tenant=job.tenant,
            )
            handles.append(handle)
        return handles

    @staticmethod
    def _spawn_planner(
        job: TrainingJobSpec,
        tree: ClientPlaceTree,
        system: ActorSystem,
        partition_plan: PartitionPlan,
        checkpoint_store: CheckpointStore | None = None,
        mixture: MixtureSchedule | None = None,
    ):
        # ``mixture`` overrides the job's schedule (the degraded-mode
        # controller wraps it with catch-up-aware weights).
        mixture = mixture or job.mixture
        strategy_config = StrategyConfig(
            mixture=mixture,
            num_microbatches=job.num_microbatches,
            balance_method=job.balance_method,
            broadcast_tp=job.broadcast_tp,
            broadcast_cp=job.broadcast_cp,
            group_size=job.group_size,
        )
        strategy = make_strategy(job.strategy, strategy_config)
        scaler = (
            MixtureDrivenScaler(partition_plan)
            if (job.enable_autoscaler and mixture is not None)
            else None
        )
        return system.create_actor(
            lambda: Planner(
                strategy=strategy,
                tree=tree,
                mixture=mixture,
                scaler=scaler,
                gcs=system.gcs,
                seed=job.seed,
                clock=system.clock,
                checkpoint_store=checkpoint_store,
                replay_window=job.replay_window,
                gcs_prefix=job.scoped("planner"),
            ),
            name=job.scoped("planner"),
            cpu_cores=4.0,
            memory_bytes=4 * GIB,
            prefer=NodeKind.CPU,
            tenant=job.tenant,
        )

    @staticmethod
    def _spawn_shadow_loaders(
        job, catalog, filesystem, system, partition_plan, loader_handles, fault_manager
    ) -> None:
        sources_by_name = {source.name: source for source in catalog}
        for handle in loader_handles:
            loader: SourceLoader = handle.instance()
            source = sources_by_name[loader.source.name]
            config = partition_plan.config_for(source.name)
            shadow_name = job.scoped(f"shadow/{job.unscoped(handle.name)}")
            shadow = system.create_actor(
                lambda src=source, ldr=loader, cfg=config: SourceLoader(
                    source=src,
                    filesystem=filesystem,
                    num_workers=cfg.workers_per_actor,
                    buffer_size=ldr.buffer_size,
                    shard_index=ldr.shard_index,
                    shard_count=ldr.shard_count,
                ),
                name=shadow_name,
                cpu_cores=1.0,
                memory_bytes=config.estimated_memory_bytes,
                prefer=NodeKind.ACCELERATOR,
                concurrency=job.prefetch_depth + 1,
                tenant=job.tenant,
                # Failure domain: a shadow on its primary's node is dead
                # weight the moment that node crashes.  Never colocate when
                # an alternative host exists (single-node clusters fall back
                # with the placement flagged ``colocated``).
                anti_affinity=system.actor_node(handle.name),
            )
            fault_manager.register_shadow(handle, shadow, source.name)

    # -- runtime workflow ----------------------------------------------------------------------------

    def run_step(self, step: int | None = None, simulate: bool = False) -> StepResult:
        """Execute one pull-workflow step end to end.

        With ``prefetch_depth>=1`` the step is served by the asynchronous
        :class:`StepPipeline` (which keeps future steps in flight); otherwise
        the whole workflow runs inline and its latency is fully exposed.
        """
        if self.pipeline is not None:
            return self.pipeline.run_step(step=step, simulate=simulate)
        return self._run_step_sync(step, simulate)

    def _run_step_sync(self, step: int | None, simulate: bool) -> StepResult:
        step = self._step if step is None else step
        planner: Planner = self.planner_handle.instance()
        sample_count = self.job.global_samples_per_step()
        if self.degradation is not None:
            self.degradation.maybe_restore(step)

        # Steps 3-5: plan, then route demands and prepare.  A fault at either
        # stage is healed (recover the member), degraded (renormalize mode:
        # drop the dark source and re-plan the step) or waited out (strict
        # mode: jittered backoff until the fault window expires).
        for _round in range(2 * max(1, self.job.num_sources)):
            plan = self._plan_with_tolerance(planner, step, sample_count)
            # Apply any piggybacked scaling directives before routing
            # demands, so an enlarged (or shrunk) fleet serves this step.
            self._apply_scaling_plan(plan)
            try:
                (
                    prepared,
                    demands_by_loader,
                    loader_wall_clock,
                    loader_transform,
                ) = self._prepare_all(plan, step)
                break
            except _ReplanStep:
                # A source went dark mid-prepare and was degraded; partially
                # prepared members have consumed buffer samples this plan
                # will never deliver.  Rewind everything to the delivered
                # prefix and re-plan the step over the survivors.
                planner.truncate_history(step)
                if self.degradation is not None:
                    self.degradation.invalidate_from(step)
                self.fault_manager.discard_checkpoints_after(step - 1)
                self._rewind_members(step)
        else:
            raise PlanError(
                f"step {step} could not be planned after repeated degradation"
            )
        # Shard-group members absorb their peers' demands (one refill each),
        # keeping every mirror byte-identical to a lone loader's buffer.
        self.fleet.sync_after_prepare(demands_by_loader)
        # Differential-interval checkpoint at the per-step sync point, where
        # every plan up to and including this step has been applied.
        self._checkpoint_members(step)

        # Step 2: constructors assemble microbatches and parallelism slices.
        backbone_plan = plan.module("backbone")
        collate_seconds = 0.0
        for constructor_handle in self.constructor_handles:
            stats = self._call_constructor(
                constructor_handle, step, "construct", step, backbone_plan, prepared
            )
            collate_seconds = max(collate_seconds, stats["collate_seconds"])

        # The synchronous workflow runs inline (data_ready_s=None), so the
        # whole fetch latency lands on the critical path and nothing is hidden.
        return self._finalize_step(
            step=step,
            plan=plan,
            plan_timings=planner.stats.latest_timings(),
            loader_wall_clock_s=loader_wall_clock,
            loader_transform_s=loader_transform,
            collate_seconds=collate_seconds,
            data_ready_s=None,
            prefetched=False,
            simulate=simulate,
        )

    def _prepare_and_fetch(self, handle, sample_ids: list[int]):
        """One member's synchronous prepare + hand-off (retried on recovery).

        The fetch returns a GCS *reference* that is resolved with ``take`` —
        the column slice travels by reference end to end, never copied.
        """
        result = handle.call("prepare", sample_ids)
        ref = handle.call("fetch_prepared_ref", sample_ids)
        return result, self.system.gcs.take(ref["key"])

    # -- fault absorption (chaos-hardened call sites) -------------------------------------

    def _prepare_all(self, plan: LoadingPlan, step: int):
        """Route the plan's demands and prepare every member's slice.

        A member fault is recovered in place when possible; an unrecoverable
        one either waits (strict) or degrades its source and raises
        :class:`_ReplanStep` (renormalize) so the caller re-plans the step.
        """
        ft = self.fault_manager
        loader_wall_clock = 0.0
        loader_transform = 0.0
        prepared_parts: list[PreparedColumns] = []
        demands_by_loader: dict[object, list[int]] = {}
        for handle, sample_ids in self._split_demands(plan).items():
            attempt = 0
            while sample_ids:
                try:
                    result, fetched = self._prepare_and_fetch(handle, sample_ids)
                except (ActorDead, ActorTimeout) as exc:
                    attempt += 1
                    if self.system.actor_state(handle.name) is not ActorState.RUNNING:
                        # Only a genuinely dead member is restarted; an
                        # alive-but-dark one (blackout, blip) keeps its
                        # prefetch cursor and is waited out or degraded.
                        try:
                            handle = self.recover_fleet_member(handle, step)
                            continue
                        except (ActorDead, ActorTimeout, StorageError):
                            pass
                    source = self._member_source(handle)
                    if self.degradation is not None and self._can_degrade({source}):
                        self.degradation.degrade({source}, step)
                        raise _ReplanStep(source) from exc
                    if attempt >= ft.config.degraded_wait_attempts:
                        raise
                    ft.sleep(ft.wait_delay_s(attempt, f"prepare.{handle.name}"))
                    continue
                loader_wall_clock = max(loader_wall_clock, result["wall_clock_s"])
                loader_transform += result["transform_latency_s"]
                prepared_parts.append(fetched)
                break
            demands_by_loader[handle] = sample_ids
        return (
            PreparedColumns.concat(prepared_parts),
            demands_by_loader,
            loader_wall_clock,
            loader_transform,
        )

    def _plan_with_tolerance(self, planner: Planner, step: int, sample_count: int):
        """Generate the step's plan, healing/degrading/waiting through faults."""
        attempt = 0
        while True:
            try:
                plan = self._generate_sized_plan(planner, step, sample_count)
            except (ActorDead, ActorTimeout) as exc:
                attempt += 1
                if not self._absorb_gather_fault(step, attempt, exc):
                    raise
                continue
            if self.degradation is not None:
                self.degradation.observe_plan(plan)
            return plan

    def _absorb_gather_fault(self, step: int, attempt: int, exc: Exception) -> bool:
        """Heal, degrade or wait after a planning-path fault.

        Returns True when the caller should retry the plan: every failed
        member recovered, or the dark sources were dropped from the mixture
        (renormalize), or one backoff delay was slept to let a fault window
        expire (strict).  False ends the policy budget — fail-stop.
        """
        ft = self.fault_manager
        # The planner itself may be the casualty (node crash, targeted kill):
        # restart it from its live state — plan history and persist backlog
        # ride in its state dict — and rewire the loader registry the
        # restarted instance cannot carry.
        if self.system.actor_state(self.planner_handle.name) is not ActorState.RUNNING:
            try:
                ft.recover_coordinator(self.planner_handle, step)
            except (ActorDead, ActorTimeout, StorageError):
                pass
            else:
                planner: Planner = self.planner_handle.instance()
                planner.register_loaders(self.loader_handles)
                # The factory rebuilt the planner with its deploy-time
                # (unbounded) strategy; reinstall the sized sampling wrapper.
                self._ensure_sized_strategy(planner)
                return True
        failed = ft.detect_failures(self._probe_handles())
        dark: set[str] = set()
        for handle in failed:
            if self.system.actor_state(handle.name) is ActorState.RUNNING:
                # Alive but dark (source blackout, control-plane blip) or
                # merely slow: restarting a live instance would discard its
                # prefetch cursor and fork the sample stream — wait the
                # window out (strict) or degrade the source (renormalize).
                dark.add(self._member_source(handle))
                continue
            try:
                self.recover_fleet_member(handle, step)
            except (ActorDead, ActorTimeout, StorageError):
                dark.add(self._member_source(handle))
        if failed and not dark:
            return True
        if dark and self.degradation is not None and self._can_degrade(dark):
            self.degradation.degrade(dark, step)
            return True
        if attempt >= ft.config.degraded_wait_attempts:
            return False
        ft.sleep(ft.wait_delay_s(attempt, f"gather-wait.{step}"))
        return True

    def _probe_handles(self) -> list:
        """Loaders worth heartbeating: everything not already degraded dark."""
        if self.degradation is None or not self.degradation.dark:
            return list(self.loader_handles)
        dark = self.degradation.dark
        return [
            handle
            for handle in self.loader_handles
            if self._member_source(handle) not in dark
        ]

    def _member_source(self, handle) -> str:
        """The source a fleet member serves (survives a dead instance)."""
        group = self.fleet.group_for(handle.name)
        if group is not None:
            return group.source
        try:
            return handle.instance().source.name
        except Exception:  # noqa: BLE001 - the record may already be gone
            return handle.name

    def _can_degrade(self, sources: set[str]) -> bool:
        """Whether dropping ``sources`` still leaves a source to sample from."""
        if self.degradation is None:
            return False
        survivors = (
            set(self.degradation.source_names) - set(self.degradation.dark) - sources
        )
        return bool(survivors)

    def _rewind_members(self, limit_step: int, handles=None) -> None:
        """Rewind loaders to the delivered prefix ``< limit_step``.

        Restores each member's newest consistent differential checkpoint
        (pristine reset when there is none) and replays the plan suffix, so
        its buffer is byte-exact with an uninterrupted run — shared by the
        sync degraded re-plan, the pipeline flush and source re-admission.
        """
        planner: Planner = self.planner_handle.instance()
        for handle in handles if handles is not None else self.fleet.all_handles():
            try:
                checkpoint = self.fault_manager.last_loader_checkpoint(
                    handle.name, max_step=limit_step - 1, consistent=True
                )
                if checkpoint is not None:
                    handle.call("restore_replay_checkpoint", checkpoint["replay"])
                    suffix_after = checkpoint["step"]
                else:
                    handle.call("reset_for_replay")
                    suffix_after = -1
                source_name = handle.instance().source.name
                for plan in planner.plans_since(suffix_after):
                    if plan.step >= limit_step:
                        continue
                    demanded = plan.source_demands.get(source_name, [])
                    if demanded:
                        handle.call("replay_demands", list(demanded))
            except Exception:  # noqa: BLE001 - unreachable members recover later
                continue

    def _call_constructor(self, handle, step: int, method: str, *args):
        """Constructor RPC with retry/backoff; a dead constructor restarts.

        Chaos faults fire *before* the target method body runs, so
        re-issuing the identical call is always safe — the constructor never
        partially executed it.
        """
        ft = self.fault_manager

        def call():
            return handle.call(method, *args)

        restarts = 0
        waits = 0
        while True:
            try:
                return ft.call_with_retry(
                    "data_constructor", method, call, actor=handle.name
                )
            except ActorDead:
                restarts += 1
                if restarts > 2:
                    raise
                ft.recover_coordinator(handle, step)
            except ActorTimeout:
                # The per-call retry budget (and possibly the breaker) is
                # spent but the actor is alive — a fault window outlasting
                # the policy.  Wait it out on the clock like strict mode.
                waits += 1
                if waits >= ft.config.degraded_wait_attempts:
                    raise
                ft.sleep(ft.wait_delay_s(waits, f"constructor-wait.{handle.name}"))

    def _finalize_step(
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
        """Shared consume epilogue of the synchronous and prefetching paths.

        Collects the per-rank deliveries for a fully constructed step,
        measures the trainer stall on the virtual clock, records the overlap
        entry, books the trainer's compute window as an event on the same
        clock (optionally simulating the iteration) and releases older
        staging.  Keeping this in one place guarantees the two paths cannot
        drift apart in delivery filtering, latency accounting or staging
        release.

        ``data_ready_s`` is the virtual instant the step's last construct
        event completed (prefetching path), or ``None`` for the synchronous
        path, where the data plane only starts once the trainer goes idle and
        readiness is therefore the trainer's free instant plus the full fetch
        latency.
        """
        # Step 1 (accounting): the fetch latency seen by the trainer clients.
        data_fetch_latency = plan_timings.total_s + loader_wall_clock_s + collate_seconds
        trainer_free_s = self.system.actor_free_at_s(self.trainer_handle.name)
        # Measured overlap: the trainer's wait for this step's data is real
        # virtual time, not an estimate — whatever portion of the fetch did
        # not stall the trainer was hidden behind earlier compute windows.
        if data_ready_s is None:
            if self.system.engine is not None:
                # Wallclock synchronous path: the inline fetch already slept
                # its modelled latency on the caller thread, so readiness is
                # "now" on the shared clock, not an offset reconstruction.
                data_ready_s = self.system.clock.now_s
                stall_s = max(0.0, data_ready_s - trainer_free_s)
            else:
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
                    deliveries[rank] = self._call_constructor(
                        constructor_handle, step, "get_batch", step, rank
                    )
        self._spill_delivery_manifest(step, plan, deliveries)

        backbone_assignments = self._assignments_from_plan(plan, "backbone")
        encoder_assignments = (
            self._encoder_assignments_from_plan(plan) if "encoder" in plan.modules else None
        )
        result = StepResult(
            step=step,
            plan=plan,
            plan_timings=plan_timings,
            loader_wall_clock_s=loader_wall_clock_s,
            loader_transform_s=loader_transform_s,
            constructor_collate_s=collate_seconds,
            data_fetch_latency_s=data_fetch_latency,
            deliveries=deliveries,
            backbone_assignments=backbone_assignments,
            encoder_assignments=encoder_assignments,
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
            def submit_iteration():
                return self.trainer_handle.submit_timed(
                    "train_step",
                    step,
                    backbone_assignments,
                    encoder_assignments,
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
        if self.system.engine is not None and self.pipeline is not None:
            # Wallclock + prefetching: awaiting the iteration here would
            # serialize trainer compute against the pipeline's next pump and
            # forfeit the very overlap the backend exists to measure.  Defer
            # the await; the pipeline collects it after pumping prefetches.
            self._pending_iteration = (iteration_future, result, simulate, submit_iteration)
        else:
            self._await_iteration(iteration_future, result, simulate, submit_iteration)
        self._last_release_s = begin_s
        if self.job.tenant is not None and self.system.engine is None:
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
        # Elasticity housekeeping at the step boundary: finalize retirements
        # whose drain completed, fire queued spawns a freed placement can now
        # host, and sample live cluster utilization.
        self.fleet.reap_draining()
        if self.fleet.pending_spawn_count():
            planner: Planner = self.planner_handle.instance()
            self.fleet.retry_pending_spawns(step, planner, scaler=planner.scaler)
        self.utilization.observe(step, self.system.scheduler.cluster_utilization())
        if self.job.tenant is not None:
            self.utilization.observe_tenants(self.system.scheduler.tenant_shares())
        self._step = step + 1
        self._history.append(result)
        return result

    def _await_iteration(
        self,
        future: ActorFuture,
        result: StepResult,
        simulate: bool,
        resubmit=None,
    ) -> None:
        """Drive the system until the trainer's booked window completes.

        Chaos faults raise from the future *before* ``train_step`` ran, so a
        dead trainer is restarted (state restored) and a blipped one waited
        out, then the identical window is re-booked via ``resubmit``.
        """
        ft = self.fault_manager
        restarts = 0
        waits = 0
        while True:
            while not future.done():
                if self.system.tick() == 0:
                    break
            try:
                if simulate:
                    result.iteration = future.result()
                else:
                    future.result()  # surface trainer failures loudly
                return
            except ActorDead:
                restarts += 1
                if resubmit is None or restarts > 2:
                    raise
                ft.recover_coordinator(self.trainer_handle, result.step)
                future = resubmit()
            except ActorTimeout:
                waits += 1
                if resubmit is None or waits >= ft.config.degraded_wait_attempts:
                    raise
                ft.sleep(ft.wait_delay_s(waits, "trainer.iteration"))
                future = resubmit()

    def _collect_iteration(self) -> None:
        """Await a deferred trainer iteration (wallclock pipeline path only)."""
        pending, self._pending_iteration = self._pending_iteration, None
        if pending is not None:
            self._await_iteration(*pending)

    def next_batch(self) -> dict[int, RankDelivery]:
        """Convenience wrapper: run a step and return the per-rank deliveries."""
        return self.run_step().deliveries

    def run_training(self, num_steps: int, simulate: bool = True) -> dict[str, float]:
        """Run several steps and return aggregate throughput / latency metrics.

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
            result = self.run_step(simulate=simulate)
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
            "avg_fetch_latency_s": sum(fetch_latencies) / max(1, len(fetch_latencies)),
            "avg_iteration_time_s": sum(iteration_times) / max(1, len(iteration_times))
            if iteration_times
            else 0.0,
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

        With a prefetching pipeline, steps already planned in flight were
        sampled under the *old* mixture.  ``flush_pending=True`` flushes
        those not-yet-delivered plans (cancelling their queued work,
        truncating the plan history and deterministically replaying loader
        state back to the delivered prefix) so every step from the current
        one onward is re-planned under the new mixture — byte-identical to a
        synchronous run that switched mixtures at the same step.  The default
        keeps the old behaviour: in-flight steps deliver under the old
        mixture and only not-yet-planned steps see the new one.
        """
        if flush_pending and self.pipeline is not None:
            self.pipeline.flush()
        planner: Planner = self.planner_handle.instance()
        if self.degradation is not None:
            # Renormalize mode plans through the controller's catch-up-aware
            # wrapper; the new schedule becomes its nominal base.
            self.degradation.rebase(mixture)
            mixture = self.degradation.schedule
        planner.mixture = mixture
        strategy_config = StrategyConfig(
            mixture=mixture,
            num_microbatches=self.job.num_microbatches,
            balance_method=self.job.balance_method,
            broadcast_tp=self.job.broadcast_tp,
            broadcast_cp=self.job.broadcast_cp,
            group_size=self.job.group_size,
        )
        planner.strategy = make_strategy(self.job.strategy, strategy_config)
        if self.job.enable_autoscaler:
            planner.scaler = MixtureDrivenScaler(self.partition_plan)

    # -- whole-run durability -----------------------------------------------------------------------------

    def _spill_delivery_manifest(
        self, step: int, plan: LoadingPlan, deliveries: dict[int, RankDelivery]
    ) -> None:
        """Persist the step's delivered-batch manifest to the checkpoint store.

        One entry per delivered step: which constructor consumed which sample
        ids, and which ranks pulled slices.  Manifests survive a restore (they
        live in the same durable store as the run checkpoints), so
        :meth:`delivery_audit` can prove exactly-once delivery across a
        crash/recovery boundary instead of only within one process lifetime.
        """
        if self.checkpoint_store is None:
            return
        backbone = plan.module("backbone")
        buckets: dict[str, list[int]] = {}
        for constructor_handle in self.constructor_handles:
            constructor: DataConstructor = constructor_handle.instance()
            ids: list[int] = []
            for assignment in backbone.bucket_assignments(constructor.bucket_index):
                ids.extend(assignment.sample_ids())
            if ids:
                buckets[constructor_handle.name] = sorted(ids)
        # A store outage queues the manifest instead of failing the step;
        # ordered draining keeps the audit trail gap-free once it heals.
        self._manifest_backlog.append(
            (step, {"step": step, "buckets": buckets, "ranks": sorted(deliveries)})
        )
        while self._manifest_backlog:
            pending_step, payload = self._manifest_backlog[0]
            try:
                self.checkpoint_store.save(MANIFEST_NAMESPACE, pending_step, payload)
            except StorageError:
                break
            self._manifest_backlog.pop(0)

    def delivery_manifest(self, step: int) -> dict | None:
        """The persisted delivered-batch manifest for ``step`` (or None)."""
        if self.checkpoint_store is None:
            return None
        return self.checkpoint_store.load(MANIFEST_NAMESPACE, step)

    def delivery_audit(self) -> dict:
        """Exactly-once delivery audit over every persisted manifest.

        Returns ``{"steps", "first_step", "last_step", "gaps",
        "duplicate_steps", "exactly_once"}``: ``gaps`` lists step numbers
        missing from the contiguous range (a delivered step whose manifest
        vanished), ``duplicate_steps`` lists steps where one sample id was
        assigned to more than one constructor (a within-step double
        delivery).  ``exactly_once`` is true when both lists are empty.
        """
        if self.checkpoint_store is None:
            return {"steps": 0, "gaps": [], "duplicate_steps": [], "exactly_once": True}
        steps = self.checkpoint_store.steps(MANIFEST_NAMESPACE)
        duplicate_steps: list[int] = []
        for step in steps:
            manifest = self.checkpoint_store.load(MANIFEST_NAMESPACE, step) or {}
            seen: set[int] = set()
            duplicated = False
            for ids in manifest.get("buckets", {}).values():
                for sample_id in ids:
                    if sample_id in seen:
                        duplicated = True
                        break
                    seen.add(sample_id)
                if duplicated:
                    break
            if duplicated:
                duplicate_steps.append(step)
        gaps = (
            sorted(set(range(steps[0], steps[-1] + 1)) - set(steps)) if steps else []
        )
        return {
            "steps": len(steps),
            "first_step": steps[0] if steps else None,
            "last_step": steps[-1] if steps else None,
            "gaps": gaps,
            "duplicate_steps": duplicate_steps,
            "exactly_once": not gaps and not duplicate_steps,
        }

    def save_checkpoint(self) -> int:
        """Persist the whole control plane to the checkpoint store.

        Flushes any in-flight prefetched steps (their plans were never
        delivered), then writes one ``run`` checkpoint entry holding the
        Planner position, every canonical loader's replay snapshot (buffer +
        cursor), the fleet topology (mirror counts, worker sizing) and the
        active mixture's construction recipe when it has one.  Together with
        the plan suffix and per-loader differential checkpoints the store
        already carries, :meth:`restore` resumes the run from the returned
        step with byte-identical batches — at a cost flat in run length.
        """
        if self.pipeline is not None:
            self.pipeline.flush()
        step = self._step
        # Between steps every delivered plan (<= step - 1) is fully applied
        # and nothing newer has started: the canonical snapshots below and
        # the forced per-loader baselines are consistent by construction.
        self._checkpoint_members(step - 1, force=True)
        planner: Planner = self.planner_handle.instance()
        # Persist the mixture only when it is user-installed: the sizing
        # mixture _ensure_sized_strategy auto-installs (recognizable by its
        # sized-strategy wrapper) is rebuilt identically on redeploy, and
        # restoring it through set_mixture would replace the sized strategy
        # with an unbounded one.
        auto_sized = getattr(planner.strategy, "mixture_names", None) is not None
        mixture = None if auto_sized else planner.mixture
        payload = {
            "step": step,
            "planner": planner.state_dict(),
            "loaders": {
                handle.name: handle.instance().replay_checkpoint()
                for handle in self.loader_handles
            },
            "topology": self.fleet.topology(),
            "mixture": mixture.descriptor() if mixture is not None else None,
        }
        self.checkpoint_store.save(RUN_NAMESPACE, step, payload)
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

        The fresh deployment's canonical loaders restore the checkpointed
        replay snapshots (fresh delta epochs force a full planner-gather
        resync), the Planner resumes at the saved position, mirrors are
        respawned to the saved fleet shape by cloning the already-restored
        canonicals, and every member gets a forced consistent baseline so
        post-restore failures keep bounded replay.  Continuation is
        byte-identical to the uninterrupted run: plans are a pure function of
        (buffer state, step, seed, mixture), all of which round-trip.
        """
        checkpoint_store = cls._scoped_store(job, checkpoint_store)
        found = checkpoint_store.load_latest(RUN_NAMESPACE)
        if found is None:
            raise ConfigurationError(
                "checkpoint store holds no whole-run checkpoint; "
                "call save_checkpoint() on a deployed instance first"
            )
        _, payload = found
        instance = cls.deploy(
            job,
            catalog=catalog,
            filesystem=filesystem,
            cluster=cluster,
            checkpoint_store=checkpoint_store,
        )
        # Match snapshots by the shard they describe, not by actor name: a
        # promoted mirror saves under its own name (``…/0m2``), which the
        # fresh deployment's canonical for that shard does not share.
        snapshots = {
            (snapshot["source"], snapshot["shard_index"]): snapshot
            for snapshot in payload["loaders"].values()
        }
        for handle in instance.loader_handles:
            loader: SourceLoader = handle.instance()
            snapshot = snapshots.get((loader.source.name, loader.shard_index))
            if snapshot is None:
                raise ConfigurationError(
                    f"whole-run checkpoint holds no snapshot for loader "
                    f"{handle.name!r}; was it saved under a different job spec?"
                )
            loader.restore_replay_checkpoint(snapshot, restore_stats=True)
        if payload.get("mixture") is not None:
            instance.set_mixture(MixtureSchedule.from_descriptor(payload["mixture"]))
        planner: Planner = instance.planner_handle.instance()
        planner.load_state_dict(payload["planner"])
        instance._step = payload["step"]
        if instance.pipeline is not None:
            instance.pipeline._next_issue_step = instance._step
        for entry in payload["topology"]:
            instance.fleet.resize_workers(
                entry["source"], entry["workers_per_actor"], instance._step
            )
            for _ in range(entry["mirrors"]):
                instance.fleet.spawn_member(entry["source"], instance._step, planner)
        instance._checkpoint_members(instance._step - 1, force=True)
        return instance

    # -- operational adaptability -------------------------------------------------------------------------

    def handle_reshard(self, notification: ReshardNotification) -> ReshardReport:
        """React to a trainer topology change (elastic resharding)."""
        if self.pipeline is not None:
            # In-flight prefetched steps were planned for the old topology;
            # flush them so the pipeline restarts from the current step.
            self.pipeline.flush()
        constructors = {
            handle.name: handle.instance() for handle in self.constructor_handles
        }
        report = self.resharder.apply(notification, constructors)
        self.tree = self.resharder.tree

        # Retire constructors whose bucket disappeared (shrinking DP) ...
        kept = set(report.reassigned_buckets)
        for handle in self.constructor_handles:
            if handle.name not in kept:
                try:
                    self.system.stop_actor(handle.name)
                except Exception:  # noqa: BLE001 - best-effort retirement
                    pass
        self.constructor_handles = [
            handle for handle in self.constructor_handles if handle.name in kept
        ]
        # ... and provision constructors for buckets the new topology added.
        mesh = notification.new_mesh
        for dp_index in range(len(self.constructor_handles), report.constructors_required):
            handle = self.system.create_actor(
                lambda idx=dp_index: DataConstructor(
                    bucket_index=idx,
                    mesh=mesh,
                    dp_index=idx,
                    max_sequence_length=self.job.max_sequence_length,
                    broadcast_tp=self.job.broadcast_tp,
                    broadcast_cp=self.job.broadcast_cp,
                    staging_capacity=max(2, self.job.prefetch_depth + 2),
                    enforce_delivery_order=self.job.prefetch_depth > 0,
                ),
                name=self.job.scoped(f"constructor/dp{dp_index}"),
                cpu_cores=2.0,
                memory_bytes=2 * GIB,
                prefer=NodeKind.ACCELERATOR,
                tenant=self.job.tenant,
            )
            self.constructor_handles.append(handle)

        planner: Planner = self.planner_handle.instance()
        planner.set_tree(self.tree)
        self.simulator = TrainingSimulator(
            self.job.model(), self.tree.mesh, gpu=self.job.gpu_spec or GpuSpec()
        )
        return report

    # -- reporting ------------------------------------------------------------------------------------------

    def memory_report(self) -> dict[str, int]:
        """Live actor memory per node plus the cluster total."""
        report = dict(self.system.memory_by_node())
        report["total"] = sum(report.values())
        return report

    def loader_memory_bytes(self) -> int:
        """Live memory of the whole loader fleet (canonicals + mirrors)."""
        return sum(
            handle.instance().ledger.total_bytes() for handle in self.fleet.all_handles()
        )

    def history(self) -> list[StepResult]:
        return list(self._history)

    def shutdown(self) -> None:
        """Stop every actor of this job and release their resources.

        Idempotent: in-flight prefetch work is drained/cancelled exactly once
        and a second call is a no-op, so teardown paths (tests, context
        managers, error handlers) can all call it safely.  With a namespace
        set (multi-tenant shared system) only *this* job's actors are
        cancelled and stopped — co-tenants are untouched.
        """
        if self._shutdown_done:
            return
        self._shutdown_done = True
        self._pending_iteration = None
        if self.pipeline is not None:
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
            except Exception:  # noqa: BLE001 - best-effort shutdown
                continue

    # -- internals ----------------------------------------------------------------------------------------------

    def _ensure_sized_strategy(self, planner: Planner) -> None:
        """Install the default bounded sampling strategy if none is configured.

        The strategy operates over the full buffered metadata; to keep the
        global batch size fixed the framework passes a mixture that, when
        absent, defaults to sampling the per-step sample budget uniformly from
        the buffered pool via the DGraph mix primitive.  Idempotent, so both
        the synchronous path and the step pipeline call it before planning.
        """
        if planner.mixture is not None:
            return
        planner.mixture = (
            self.degradation.schedule
            if self.degradation is not None
            else MixtureSchedule.uniform(self.catalog.names())
        )
        # Rebuild the strategy with the sampling mixture so every step
        # draws a bounded, mixed batch rather than the whole buffer.
        strategy_config = StrategyConfig(
            mixture=planner.mixture,
            num_microbatches=self.job.num_microbatches,
            balance_method=self.job.balance_method,
            broadcast_tp=self.job.broadcast_tp,
            broadcast_cp=self.job.broadcast_cp,
            group_size=self.job.group_size,
        )
        planner.strategy = self._sized_strategy(
            make_strategy(self.job.strategy, strategy_config),
            self.job.global_samples_per_step(),
        )

    def _generate_sized_plan(self, planner: Planner, step: int, sample_count: int) -> LoadingPlan:
        """Generate a plan limited to the job's per-step sample budget."""
        del sample_count  # bound via the job spec in _ensure_sized_strategy
        self._ensure_sized_strategy(planner)
        return planner.generate_plan(step)

    def _sized_strategy(self, strategy, sample_count: int):
        mixture_names = self.catalog.names()

        def sized(buffer_infos, tree, step, seed=0):
            bounded = self._bound_buffer(
                buffer_infos,
                sample_count,
                step,
                seed,
                quotas=self._degraded_quotas(step, sample_count, buffer_infos),
            )
            return strategy(bounded, tree, step, seed)

        sized.__name__ = f"sized[{getattr(strategy, '__name__', 'strategy')}]"
        sized.mixture_names = mixture_names
        return sized

    def _degraded_quotas(
        self,
        step: int,
        sample_count: int,
        buffer_infos: dict[str, SampleColumns],
    ) -> dict[str, int] | None:
        """Per-source bounding quotas under a degraded-mode controller.

        The default proportional bound subsamples the pool by buffer size,
        whose remainder rounding does not agree with the mix primitive's
        largest-remainder quota — the mismatch silently drops samples (the
        mix's extra lands on a source the bound capped) and clips the
        catch-up schedule's over-weighted quota for an owed source.  Whenever
        a controller is installed, bound each present source to exactly the
        integer quota the schedule asks for instead, so healthy steps deliver
        ``expected_quotas(base)`` — the controller's accounting unit — and
        catch-up transfers reproduce sample-exactly.  Returns ``None`` for
        jobs without a controller (``degraded_mode="strict"``), where the
        legacy bound (and therefore byte-identical plans) applies.
        """
        degradation = self.degradation
        if degradation is None:
            return None
        weights = degradation.schedule.weights_at(step)
        present = {
            name: weight
            for name, weight in weights.items()
            if weight > 0 and len(buffer_infos.get(name, ())) > 0
        }
        if not present:
            return None
        total = sum(present.values())
        normalized = {name: weight / total for name, weight in present.items()}
        return expected_quotas(normalized, sample_count)

    @staticmethod
    def _bound_buffer(
        buffer_infos: dict[str, SampleColumns],
        sample_count: int,
        step: int,
        seed: int,
        quotas: dict[str, int] | None = None,
    ) -> dict[str, SampleColumns]:
        """Deterministically subsample the buffered metadata to the step budget.

        Each source keeps the first ``share`` rows of its buffer rotated by a
        per-step offset (index arithmetic over the gathered columns).
        Explicit ``quotas`` (degraded catch-up) replace the proportional
        share; a source whose buffer runs shorter than its quota hands the
        spare budget to the next sources.
        """
        total = sum(len(samples) for samples in buffer_infos.values())
        if total <= sample_count:
            return buffer_infos
        bounded: dict[str, SampleColumns] = {}
        remaining = sample_count
        sources = sorted(buffer_infos)
        spare = 0
        for index, source in enumerate(sources):
            samples = buffer_infos[source]
            if quotas is not None:
                share = quotas.get(source, 0) + spare
                spare = max(0, share - len(samples))
            else:
                share = max(1, round(sample_count * len(samples) / total))
                share = min(share, remaining - (len(sources) - index - 1)) if index < len(sources) - 1 else remaining
            share = max(0, min(share, len(samples), remaining))
            offset = (step * 7) % max(1, len(samples))
            bounded[source] = samples.rotate_take(offset, share)
            remaining -= share
        return bounded

    def _split_demands(self, plan: LoadingPlan) -> dict[object, list[int]]:
        """Map each fleet member to the sample ids it must prepare.

        Routing is owned by the :class:`LoaderFleet`: ids go to the shard
        group whose canonical buffers them, and split round-robin across the
        group's members — byte-identical to the pre-fleet routing while every
        group is a singleton, and work-dividing once the fleet scaled up.
        Canonicals swapped externally (manual failover at the facade level)
        are adopted into their shard groups first.
        """
        for handle in self.loader_handles:
            if self.fleet.group_for(handle.name) is None:
                self.fleet.adopt_canonical(handle)
        return self.fleet.split_demands(plan)

    def _apply_scaling_plan(self, plan: LoadingPlan) -> None:
        """Consume a plan's piggybacked ScalingPlan at the step boundary."""
        if not self.job.elastic_fleet:
            return
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
        if target_actors < 1:
            raise ConfigurationError("target_actors must be >= 1")
        from repro.core.plans import LoaderScalingDirective, ScalingPlan

        planner: Planner = self.planner_handle.instance()
        directive = LoaderScalingDirective(
            source=source,
            target_actors=target_actors,
            target_workers_per_actor=0,
            reason="manual scale_source",
        )
        self.fleet.apply_scaling(
            ScalingPlan(step=self._step, directives=[directive]),
            self._step,
            planner,
            scaler=None,
        )
        return self.fleet.member_count(source)

    def recover_fleet_member(self, handle, at_step: int):
        """Promote/restart a failed fleet member and resync its buffer state.

        Shared by the synchronous path and the step pipeline.  Recovery picks
        the cheapest sound path, in order:

        1. **Mirror promotion** (hot standby): a failed canonical whose shard
           group has a live mirror adopts that mirror in place.  Mirrors
           absorb every member's demands each step, so the mirror *is* the
           canonical's state — zero replay.
        2. **Shadow promotion / in-place restart** with **bounded replay**:
           the replacement restores the latest *consistent* differential
           checkpoint (buffer + cursor snapshot taken at a past sync point)
           and replays only the post-checkpoint plan suffix — Sec. 6.1
           differential checkpoint + replay, now flat in run length.  With no
           consistent checkpoint (fresh deployments), it falls back to the
           full from-genesis replay.

        Only canonical members sit in the Planner's gather set; a failed
        elastic mirror is swapped inside its shard group without touching it.
        """
        self.system.cancel_pending(handle.name)
        planner: Planner = self.planner_handle.instance()

        group = self.fleet.group_for(handle.name)
        is_canonical = (
            group is not None
            and group.members
            and group.members[0].name == handle.name
        )
        mirror = self.fleet.standby_mirror(handle.name) if is_canonical else None
        if mirror is not None and self.fault_manager.shadow_for(handle.name) is None:
            promoted = self.fault_manager.promote_standby(handle, mirror, at_step)
            self.fleet.promote_mirror(handle, promoted, at_step)
            for index, existing in enumerate(self.loader_handles):
                if existing is handle or existing.name == handle.name:
                    self.loader_handles[index] = promoted
                    break
            planner.register_loaders(self.loader_handles)
            try:
                self.system.stop_actor(handle.name)
            except Exception:  # noqa: BLE001 - the failed actor may be gone
                pass
            return promoted

        promoted = self.fault_manager.recover_loader(handle, step=at_step)

        for index, existing in enumerate(self.loader_handles):
            if existing is handle or existing.name == handle.name:
                self.loader_handles[index] = promoted
                break
        planner.register_loaders(self.loader_handles)
        self.fleet.replace_member(handle, promoted)

        checkpoint = self.fault_manager.last_loader_checkpoint(
            handle.name, max_step=at_step - 1, consistent=True
        )
        if checkpoint is not None:
            promoted.call("restore_replay_checkpoint", checkpoint["replay"])
            suffix_after = checkpoint["step"]
        else:
            promoted.call("reset_for_replay")
            suffix_after = -1
        source_name = promoted.instance().source.name
        for plan in planner.plans_since(suffix_after):
            if plan.step >= at_step:
                continue
            demanded = plan.source_demands.get(source_name, [])
            if demanded:
                promoted.call("replay_demands", list(demanded))
        return promoted

    def _checkpoint_members(self, step: int, force: bool = False) -> None:
        """Checkpoint every fleet member at a consistent sync point.

        Called once per step right after :meth:`LoaderFleet.sync_after_prepare`
        — the instant where every plan up to and including ``step`` has been
        applied to every member and nothing beyond has started — so the
        snapshots are valid bases for bounded suffix replay.  The differential
        interval gate inside :meth:`FaultToleranceManager.checkpoint_loaders`
        keeps this O(1) on non-interval steps, and the batched spill commits
        the whole sync point in one store transaction.
        """
        healthy = []
        for handle in self.fleet.all_handles():
            try:
                # Snapshot eligibility probes the live instance; a member that
                # died since the last boundary is skipped here and recovered
                # at its next RPC.
                handle.instance()
            except Exception:  # noqa: BLE001 - a dying member is recovered later
                continue
            healthy.append(handle)
        try:
            self.fault_manager.checkpoint_loaders(
                healthy, step, consistent=True, force=force
            )
        except Exception:  # noqa: BLE001 - a dying member is recovered later
            # Batched spill failed mid-flight; fall back to per-member writes
            # so one bad snapshot cannot suppress the others.
            for handle in healthy:
                try:
                    self.fault_manager.checkpoint_loader(
                        handle, step, consistent=True, force=force
                    )
                except Exception:  # noqa: BLE001
                    continue

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
            # A freshly spawned member clones its canonical's buffer at the
            # plan-application point *before* step ``change.step``'s demands
            # land, so a force checkpoint tagged ``step - 1`` gives it a
            # consistent bounded-replay baseline from birth.
            for handle in self.fleet.all_handles():
                if handle.name != change.actor:
                    continue
                try:
                    self.fault_manager.checkpoint_loader(
                        handle, change.step - 1, consistent=True, force=True
                    )
                except Exception:  # noqa: BLE001 - best-effort baseline
                    pass
                break

    def _assignments_from_plan(
        self, plan: LoadingPlan, module: str
    ) -> list[list[list[SampleMetadata]]]:
        module_plan = plan.module(module)
        assignments: list[list[list[SampleMetadata]]] = []
        for bucket_index in range(module_plan.num_buckets):
            bucket = [
                list(assignment.samples)
                for assignment in module_plan.bucket_assignments(bucket_index)
            ]
            while len(bucket) < module_plan.num_microbatches:
                bucket.append([])
            assignments.append(bucket)
        return assignments

    def _encoder_assignments_from_plan(self, plan: LoadingPlan) -> list[list[list[SampleMetadata]]]:
        return self._assignments_from_plan(plan, "encoder")


def fetch_bound_gpu_spec(job: TrainingJobSpec, compute_fraction: float = 0.42) -> GpuSpec:
    """Calibrate a :class:`GpuSpec` that makes ``job`` fetch-bound.

    Probes one synchronous step under the default GPU to measure the job's
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
