"""The Planner: centralized plan generation and coordination.

The Planner is the only component with a global view of all Source Loader
buffers, the mixture schedule and the trainer topology.  Every step it (1)
gathers lightweight buffer metadata from every loader, (2) runs the declared
orchestration strategy to synthesize a :class:`LoadingPlan`, (3) consults the
AutoScaler for a piggybacked :class:`ScalingPlan` and (4) broadcasts the plan.
Each of those phases is timed so the Fig. 15 breakdown can be regenerated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.actors.actor import Actor, ActorHandle
from repro.actors.gcs import GlobalControlStore
from repro.core.autoscaler import MixtureDrivenScaler
from repro.core.checkpoint import CheckpointStore
from repro.core.columns import BufferMirror, SampleColumns
from repro.core.place_tree import ClientPlaceTree
from repro.core.plans import LoadingPlan, PlanRecord, ScalingPlan
from repro.core.strategies import StrategyFn
from repro.data.mixture import MixtureSchedule
from repro.data.samples import SampleMetadata
from repro.errors import ActorDead, ActorTimeout, PlanError, StorageError

#: Simulated cost of gathering one loader's buffer summary over RPC.
GATHER_RPC_SECONDS = 0.00035
#: Per-sample metadata deserialisation cost during gathering.
GATHER_PER_SAMPLE_SECONDS = 1.0e-7
#: Per-event deserialisation cost of an incremental buffer delta.  The
#: gather ships only the mutations since the previous plan, so its modelled
#: latency scales with the per-step churn, not the buffer depth.
GATHER_PER_DELTA_SECONDS = 1.0e-7
#: Broadcast base latency plus per-byte cost for shipping the finalized plan.
BROADCAST_BASE_SECONDS = 0.0008
BROADCAST_PER_BYTE_SECONDS = 1.0 / 4.0e9

#: Checkpoint-store namespace holding one :class:`PlanRecord` per generated plan.
PLAN_NAMESPACE = "planner/plans"


@dataclass
class PlanTimings:
    """Per-step latency breakdown of the planning pipeline (Fig. 15)."""

    buffer_gather_s: float = 0.0
    compute_plan_s: float = 0.0
    broadcast_plan_s: float = 0.0

    @property
    def total_s(self) -> float:
        return self.buffer_gather_s + self.compute_plan_s + self.broadcast_plan_s


@dataclass
class PlannerStats:
    plans_generated: int = 0
    samples_planned: int = 0
    timings: list[PlanTimings] = field(default_factory=list)

    def latest_timings(self) -> PlanTimings:
        return self.timings[-1] if self.timings else PlanTimings()


class Planner(Actor):
    """Centralized planner actor."""

    role = "planner"

    def __init__(
        self,
        strategy: StrategyFn,
        tree: ClientPlaceTree,
        mixture: MixtureSchedule | None = None,
        scaler: MixtureDrivenScaler | None = None,
        gcs: GlobalControlStore | None = None,
        seed: int = 0,
        clock: object | None = None,
        checkpoint_store: CheckpointStore | None = None,
        replay_window: int = 50,
        gcs_prefix: str = "planner",
    ) -> None:
        super().__init__()
        if replay_window < 1:
            raise PlanError("replay_window must be positive")
        self.strategy = strategy
        self.tree = tree
        self.mixture = mixture
        self.scaler = scaler
        self.gcs = gcs
        #: Root of this planner's GCS checkpoint keys.  Multi-tenant
        #: deployments pass the tenant-scoped name (e.g. ``"jobA/planner"``)
        #: so co-scheduled planners never clobber each other's markers.
        self.gcs_prefix = gcs_prefix
        self.seed = seed
        #: Durable store for plan records.  In-memory history is bounded to
        #: ``replay_window`` records once a store is attached; older records
        #: stay durable in the store and are served via :meth:`plans_since`.
        self.checkpoint_store = checkpoint_store
        self.replay_window = replay_window
        #: Shared :class:`~repro.actors.virtual.VirtualClock` (when deployed on
        #: an actor system) so AutoScaler decisions are stamped with the
        #: simulated instant they landed.
        self.clock = clock
        self.stats = PlannerStats()
        self._loader_handles: list[ActorHandle] = []
        self._plan_history: list[PlanRecord] = []
        self._step = 0
        #: Gather state: per-loader incremental buffer mirrors and each
        #: loader's declared source (the bucket key even when a buffer is
        #: momentarily empty).
        self._mirrors: dict[str, BufferMirror] = {}
        self._declared_sources: dict[str, str] = {}
        #: Sources dropped from planning while degraded (all loaders dark).
        self._excluded_sources: frozenset[str] = frozenset()
        #: Records generated but not yet durably persisted (store outage).
        #: In-memory history is never trimmed while this is non-empty, so a
        #: flaky store delays durability without ever losing replay state.
        self._persist_backlog: list[PlanRecord] = []

    # -- wiring ---------------------------------------------------------------------------

    def register_loaders(self, handles: list[ActorHandle]) -> None:
        """Tell the Planner which Source Loaders exist (called at deploy time)."""
        self._loader_handles = list(handles)
        # Re-registration (deploy-time wiring, failover swaps) drops mirrors
        # for handles that left the gather set; replacement loaders start a
        # new delta epoch, so surviving names resynchronise automatically.
        names = {handle.name for handle in handles}
        self._mirrors = {
            name: mirror for name, mirror in self._mirrors.items() if name in names
        }
        self._declared_sources = {
            name: source
            for name, source in self._declared_sources.items()
            if name in names
        }

    def set_tree(self, tree: ClientPlaceTree) -> None:
        """Adopt a new trainer topology (elastic resharding)."""
        self.tree = tree

    @property
    def loader_names(self) -> list[str]:
        return [handle.name for handle in self._loader_handles]

    @property
    def installed_mixture(self) -> MixtureSchedule | None:
        """The user-installed mixture, ``None`` under the auto-sized default.

        The sizing mixture ``ensure_sized_strategy`` installs (recognizable
        by its sized-strategy wrapper) is rebuilt identically on redeploy;
        restoring it through ``set_mixture`` would replace the sized strategy
        with an unbounded one, so run checkpoints must not persist it.
        """
        auto_sized = getattr(self.strategy, "mixture_names", None) is not None
        return None if auto_sized else self.mixture

    def set_excluded_sources(self, sources) -> None:
        """Drop ``sources`` from the gather set (degraded-mode renormalize).

        Excluded sources are skipped entirely — no RPCs are issued to their
        loaders and their buffers never reach the strategy, so the mixture
        renormalizes over the survivors.  Pass an empty set to restore the
        full gather.
        """
        self._excluded_sources = frozenset(sources)

    def _is_excluded(self, handle: ActorHandle) -> bool:
        if not self._excluded_sources:
            return False
        try:
            source = self._declared_source(handle)
        except (ActorDead, ActorTimeout):
            # The loader is dark while exclusions are active — exactly the
            # degraded scenario.  Skip it rather than poison the gather.
            return True
        return source in self._excluded_sources

    # -- planning -------------------------------------------------------------------------------

    def gather_buffer_columns(self) -> tuple[dict[str, SampleColumns], float]:
        """Delta gather: maintain per-loader buffer mirrors incrementally.

        Instead of copying every loader's whole buffer each step, ask each
        loader for the mutations since the previous gather
        (:meth:`~repro.core.source_loader.SourceLoader.buffer_delta`) and
        replay them onto a persistent :class:`BufferMirror`.  A fresh
        consumer position, a loader restart/pristine replay (new delta epoch)
        or a truncated log degenerates to a full snapshot for that loader —
        so the mirror is always exact, never merely hopefully-consistent.
        The modelled latency charges per delta event (or per sample on a
        resync), keeping gather cost proportional to churn rather than depth.
        Each source gets a lazy column set over its mirrors' records
        (:meth:`SampleColumns.of_source`): arrays are built only for rows a
        strategy reads, so a plan builds them for the rows it selects.
        """
        records: dict[str, list[SampleMetadata]] = {}
        latency = 0.0
        for handle in self._loader_handles:
            if self._is_excluded(handle):
                continue
            mirror = self._mirrors.get(handle.name)
            if mirror is None:
                mirror = BufferMirror(source=self._declared_source(handle))
                self._mirrors[handle.name] = mirror
            reply = handle.call("buffer_delta", mirror.epoch, mirror.seq)
            if reply["resync"]:
                buffer = reply["buffer"]
                mirror.snapshot(buffer)
                latency += GATHER_RPC_SECONDS + GATHER_PER_SAMPLE_SECONDS * len(buffer)
            else:
                events = reply["events"]
                mirror.apply(events)
                latency += GATHER_RPC_SECONDS + GATHER_PER_DELTA_SECONDS * len(events)
            mirror.epoch = reply["epoch"]
            mirror.seq = reply["seq"]
            records.setdefault(mirror.source, []).extend(mirror.records())
        infos = {
            source: SampleColumns.of_source(source, rows) for source, rows in records.items()
        }
        return infos, latency

    def _declared_source(self, handle: ActorHandle) -> str:
        """The source a loader serves, resolved once and cached by actor name.

        Keeps an empty buffer bucketed under its source instead of splitting
        one source across a metadata-derived bucket and a missing one.
        """
        cached = self._declared_sources.get(handle.name)
        if cached is not None:
            return cached
        source = handle.call("declared_source")
        self._declared_sources[handle.name] = source
        return source

    def generate_plan(self, step: int | None = None) -> LoadingPlan:
        """Run one planning cycle; return the plan, keeping its record in history."""
        if not self._loader_handles:
            raise PlanError("the planner has no registered source loaders")
        step = self._step if step is None else step

        buffer_infos, gather_latency = self.gather_buffer_columns()
        dgraph_plan = self.strategy(buffer_infos, self.tree, step, self.seed)
        compute_latency = sum(dgraph_plan.api_costs.values()) + 0.0005
        for subplan in dgraph_plan.subplan.values():
            compute_latency += sum(subplan.api_costs.values())

        plan = LoadingPlan(
            step=step,
            source_demands=dgraph_plan.all_source_demands(),
            modules={dgraph_plan.module.module: dgraph_plan.module},
            fetching_ranks=dgraph_plan.fetching_ranks,
            mixture_weights=dgraph_plan.mixture_weights,
        )
        for name, subplan in dgraph_plan.subplan.items():
            plan.modules[name] = subplan.module
        plan.validate()

        scaling = self._maybe_scale(step)
        if scaling is not None and not scaling.is_empty():
            plan.scaling = scaling

        broadcast_latency = (
            BROADCAST_BASE_SECONDS + plan.metadata_bytes() * BROADCAST_PER_BYTE_SECONDS
        )
        timings = PlanTimings(
            buffer_gather_s=gather_latency,
            compute_plan_s=compute_latency,
            broadcast_plan_s=broadcast_latency,
        )
        self.stats.timings.append(timings)
        self.stats.plans_generated += 1
        self.stats.samples_planned += plan.total_samples()
        record = plan.record()
        self._plan_history.append(record)
        if self.checkpoint_store is not None:
            # Persist the record before trimming: in-memory history keeps
            # only the bounded replay window, the store keeps everything, so
            # replay consumers restore a checkpoint and fetch just the
            # suffix instead of rebuilding from genesis.  A store outage
            # queues the record instead of failing the planning cycle; memory
            # holds every unpersisted record until the store heals.
            self._persist_backlog.append(record)
            self._flush_persist_backlog()
            if not self._persist_backlog and len(self._plan_history) > self.replay_window:
                del self._plan_history[: len(self._plan_history) - self.replay_window]
        self._step = step + 1
        if self.gcs is not None:
            self.gcs.put(f"{self.gcs_prefix}/last_step", step)
        self.ledger.charge("plan_metadata", plan.metadata_bytes())
        return plan

    def _maybe_scale(self, step: int) -> ScalingPlan | None:
        if self.scaler is None or self.mixture is None:
            return None
        moving = self.mixture.moving_average(step, window=self.scaler.window)
        now_s = self.clock.now_s if self.clock is not None else None
        return self.scaler.observe(step, moving, now_s=now_s)

    # -- fault tolerance -----------------------------------------------------------------------------

    def _flush_persist_backlog(self) -> None:
        """Drain queued record saves in order; stops at the first store error.

        Ordering matters: a later plan must never be durable while an
        earlier one is not, or replay-from-store would see a gap.
        """
        while self._persist_backlog:
            record = self._persist_backlog[0]
            try:
                self.checkpoint_store.save(PLAN_NAMESPACE, record.step, record)
            except StorageError:
                break
            self._persist_backlog.pop(0)

    def state_dict(self, before_step: float = float("inf")) -> dict:
        """Position and replay state, cut to the plans for steps below
        ``before_step``: a whole-run save taken with steps in flight records
        the Planner as of the consume position, not of the prefetch frontier.
        History rides as :class:`PlanRecord` values: no sample metadata."""
        return {
            "step": min(self._step, before_step),
            "plans_generated": self.stats.plans_generated,
            # Coordinator-restart payload: the in-memory history (including
            # the not-yet-durable persist backlog) rides along so a restarted
            # planner can still replay delivered plans into rewound loaders
            # even when a store outage delayed persistence.
            "plan_history": [p for p in self._plan_history if p.step < before_step],
            "persist_backlog": [p for p in self._persist_backlog if p.step < before_step],
            "excluded_sources": tuple(sorted(self._excluded_sources)),
        }

    def load_state_dict(self, state: dict) -> None:
        self._step = int(state.get("step", 0))
        self.stats.plans_generated = int(state.get("plans_generated", 0))
        if "plan_history" in state:
            self._plan_history = list(state["plan_history"])
            self._persist_backlog = list(state.get("persist_backlog", []))
            self._excluded_sources = frozenset(state.get("excluded_sources", ()))

    def replay_from_gcs(self) -> int:
        """Recover the planning position after a restart.

        Prefers the durable :class:`CheckpointStore`: the bounded suffix of
        persisted plans is restored into memory directly and the planner
        resumes after the newest one — no from-genesis regeneration.  Falls
        back to the GCS position marker (plan history then rebuilt by
        deterministic replay: same strategy + same seed ⇒ same plans).
        Returns the step to resume from.
        """
        if self.checkpoint_store is not None:
            steps = self.checkpoint_store.steps(PLAN_NAMESPACE)
            if steps:
                suffix = steps[-self.replay_window :]
                self._plan_history = [
                    self.checkpoint_store.load(PLAN_NAMESPACE, s) for s in suffix
                ]
                self._step = steps[-1] + 1
                return self._step
        if self.gcs is None:
            return self._step
        last = self.gcs.get(f"{self.gcs_prefix}/last_step")
        if last is None:
            return self._step
        self._step = int(last) + 1
        return self._step

    # -- introspection -----------------------------------------------------------------------------------

    def plan_history(self) -> list[PlanRecord]:
        """Every plan's record, oldest first (store-backed beyond the window)."""
        return self.plans_since(-1)

    def plans_since(self, step: int) -> list[PlanRecord]:
        """The records of all plans with ``plan.step > step``, oldest first.

        Served from the bounded in-memory window when possible; records
        pruned from memory are fetched back from the durable store, so both
        halves are the same :class:`PlanRecord` type.  Replay consumers pass
        the restored checkpoint's step so only the suffix is ever
        materialised: memory holds the newest plans, so what is missing lies
        between ``step`` and the window's first plan, and only an empty
        window makes the store list every step of the run.
        """
        plans = [plan for plan in self._plan_history if plan.step > step]
        if self.checkpoint_store is not None:
            if self._plan_history:
                missing = range(step + 1, self._plan_history[0].step)
            else:
                missing = [s for s in self.checkpoint_store.steps(PLAN_NAMESPACE) if s > step]
            fetched = [self.checkpoint_store.load(PLAN_NAMESPACE, s) for s in missing]
            plans = [plan for plan in fetched if plan is not None] + plans
        return plans

    def truncate_history(self, step: int) -> int:
        """Drop plans for steps ``>= step``; returns how many were dropped.

        Called when the prefetching pipeline flushes in-flight future steps
        (e.g. on a reshard): their plans were never delivered, so keeping
        them (in memory *or* in the durable store) would corrupt later
        deterministic replay and duplicate step entries once the steps are
        re-planned.
        """
        kept = [plan for plan in self._plan_history if plan.step < step]
        dropped = len(self._plan_history) - len(kept)
        self._plan_history = kept
        self._persist_backlog = [
            plan for plan in self._persist_backlog if plan.step < step
        ]
        if self.checkpoint_store is not None:
            dropped = max(dropped, self.checkpoint_store.delete_from(PLAN_NAMESPACE, step))
        self._step = min(self._step, step)
        return dropped

    def latest_plan(self) -> PlanRecord:
        if not self._plan_history:
            raise PlanError("no plan has been generated yet")
        return self._plan_history[-1]

    def heartbeat_payload(self) -> dict:
        return {"step": self._step, "plans": self.stats.plans_generated}
