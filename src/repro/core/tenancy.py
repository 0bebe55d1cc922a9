"""Multi-tenant shared data plane: many jobs, one ActorSystem.

:class:`TenantManager` runs several concurrent :class:`MegaScaleData` jobs
against one shared actor system, placement scheduler and node pool — the
"input data processing as a service" shape (ROADMAP item 1): instead of N
silo clusters with N planners and N× idle headroom, tenants share capacity
and elastic bursts borrow from whoever is idle.

Isolation is layered:

- **Namespace isolation** — every tenant's job gets ``namespace=<tenant>``,
  which prefixes all actor names, planner GCS keys, ``prepared/`` refs (via
  scoped loader names) and checkpoint-store namespaces
  (:class:`~repro.core.checkpoint.NamespacedCheckpointStore`), so shared
  control-plane state never collides.
- **Admission quotas** — each tenant registers a
  :class:`~repro.actors.scheduler.TenantQuota` (weight, priority tier,
  optional CPU/memory caps); the scheduler rejects placements that would
  breach the caps and tracks per-tenant reservations.
- **Fair-share service** — queued (capacity-rejected) spawns are served at
  round boundaries by priority tier first, then weighted fair-share deficit,
  so an under-served tenant catches up before an over-served one grows.
- **Mirror preemption** — when a higher-tier tenant's burst cannot place its
  mirrors, the manager drain-retires the *youngest mirrors* of the most
  over-served lower-tier tenants (canonical members are never preempted, so
  victims degrade to their base capacity but keep serving), then retries the
  queued spawns against the freed capacity.

Determinism survives sharing: plans are a pure function of (buffer state,
step, seed, mixture), co-tenants only contend for capacity and time, and
preemption only removes mirrors — which are byte-invisible by fleet design —
so each tenant's delivered batches stay byte-identical to a solo run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.actors.runtime import ActorSystem, ClusterSpec
from repro.actors.scheduler import TenantQuota
from repro.core.checkpoint import InMemoryCheckpointStore
from repro.core.framework import MegaScaleData, TrainingJobSpec
from repro.core.planner import Planner
from repro.errors import ConfigurationError


@dataclass
class TenantSpec:
    """One tenant: a job plus its share of the pool.

    ``priority`` orders tenants into tiers (higher preempts lower);
    ``weight`` sets the fair share within a tier; the optional quotas are
    hard admission caps enforced by the scheduler.
    """

    name: str
    job: TrainingJobSpec
    priority: int = 0
    weight: float = 1.0
    cpu_quota: float | None = None
    memory_quota: int | None = None

    def __post_init__(self) -> None:
        if not self.name or "/" in self.name or " " in self.name:
            raise ConfigurationError(
                f"tenant name {self.name!r} must be non-empty without '/' or spaces"
            )


@dataclass(frozen=True)
class PreemptionEvent:
    """One mirror drain-retired from ``victim`` on behalf of ``beneficiary``."""

    round: int
    at_s: float
    victim: str
    beneficiary: str
    source: str


class TenantManager:
    """Admit, co-schedule and account many jobs on one shared data plane.

    The manager builds the shared :class:`ActorSystem` on ``cluster`` with
    ``backend`` (and, for the wallclock backend, ``time_scale``) and one
    in-memory checkpoint store every tenant shares.
    """

    def __init__(
        self,
        cluster: ClusterSpec | None = None,
        backend: str = "virtual",
        time_scale: float = 1.0,
        enable_preemption: bool = True,
    ) -> None:
        #: Shared pools use ``pack`` placement: consolidating tenant base
        #: fleets keeps whole-node holes open, which is what lets one
        #: tenant's burst borrow capacity a dedicated silo would not have.
        self.system = ActorSystem(
            cluster or ClusterSpec(),
            backend=backend,
            time_scale=time_scale,
            placement_policy="pack",
        )
        #: One durable store shared by every tenant; each deployment sees a
        #: tenant-scoped view, so namespaces stay disjoint.
        self.checkpoint_store = InMemoryCheckpointStore()
        self.enable_preemption = enable_preemption
        self.tenants: dict[str, TenantSpec] = {}
        self.deployments: dict[str, MegaScaleData] = {}
        self.preemptions: list[PreemptionEvent] = []

    # -- admission -------------------------------------------------------------

    def admit(self, spec: TenantSpec) -> MegaScaleData:
        """Register the tenant's quota and deploy its job on the shared pool.

        The job is deployed under ``namespace=<tenant name>``; a
        :class:`SchedulingError` propagates when the pool (or the tenant's
        quota) cannot host the job's base actors.
        """
        if spec.name in self.tenants:
            raise ConfigurationError(f"tenant {spec.name!r} already admitted")
        job = spec.job
        if job.namespace and job.namespace != spec.name:
            raise ConfigurationError(
                f"job namespace {job.namespace!r} conflicts with tenant name {spec.name!r}"
            )
        if job.backend != self.system.backend:
            raise ConfigurationError(
                f"tenant {spec.name!r} wants backend {job.backend!r} but the shared "
                f"system runs {self.system.backend!r}"
            )
        if not job.namespace:
            job = replace(job, namespace=spec.name)
        self.system.scheduler.register_tenant(
            TenantQuota(
                tenant=spec.name,
                weight=spec.weight,
                priority=spec.priority,
                cpu_limit=spec.cpu_quota,
                memory_limit=spec.memory_quota,
            )
        )
        deployment = MegaScaleData.deploy(
            job, checkpoint_store=self.checkpoint_store, system=self.system
        )
        self.tenants[spec.name] = spec
        self.deployments[spec.name] = deployment
        return deployment

    def evict(self, name: str) -> None:
        """Shut down one tenant's actors; its reservations return to the pool."""
        deployment = self.deployments.pop(name, None)
        self.tenants.pop(name, None)
        if deployment is not None:
            deployment.shutdown()

    # -- co-scheduling ---------------------------------------------------------

    def run(self, num_steps: int, simulate: bool = True) -> dict:
        """Interleave ``num_steps`` steps per tenant on the shared pool.

        Steps are round-robin interleaved (one step per tenant per round, in
        admission order) so tenants genuinely contend for the pool; at each
        round boundary drained retirements are reaped, queued spawns are
        serviced by (priority, fair-share deficit), and — when enabled —
        higher-tier tenants preempt lower-tier mirrors for unmet demand.
        Returns :meth:`report`.
        """
        for round_index in range(num_steps):
            for name in list(self.deployments):
                self.deployments[name].run_step(simulate=simulate)
            self.service_round(round_index)
        return self.report()

    def service_round(self, round_index: int) -> int:
        """One boundary pass: reap drains, preempt, pump queued spawns.

        Returns how many queued spawns were placed.  Callers driving their
        own step loop (instead of :meth:`run`) should invoke this at every
        step boundary.
        """
        for deployment in self.deployments.values():
            deployment.fleet.reap_draining()
        if self.enable_preemption:
            self._preempt_for_priority(round_index)
        return self._service_pending(round_index)

    def _ordered_by_need(self) -> list[str]:
        """Tenants by service order: priority tier desc, fair-share deficit desc."""
        shares = self.system.scheduler.tenant_shares()
        return sorted(
            self.deployments,
            key=lambda name: (
                -self.tenants[name].priority,
                -shares.get(name, {}).get("deficit", 0.0),
            ),
        )

    def _service_pending(self, round_index: int) -> int:
        spawned = 0
        for name in self._ordered_by_need():
            deployment = self.deployments[name]
            if deployment.fleet.pending_spawn_count() == 0:
                continue
            planner: Planner = deployment.planner_handle.instance()
            spawned += deployment.fleet.retry_pending_spawns(
                deployment.plan_frontier(), planner, scaler=planner.scaler
            )
        return spawned

    def _preempt_for_priority(self, round_index: int) -> None:
        """Drain-retire lower-tier mirrors to host higher-tier unmet demand.

        For each beneficiary tenant (highest tier first) with queued spawns,
        victims are strictly lower-tier tenants that still hold mirrors,
        most over-served (smallest fair-share deficit) first.  One mirror is
        retired per unmet spawn; canonicals are never touched.
        """
        shares = self.system.scheduler.tenant_shares()
        for name in self._ordered_by_need():
            beneficiary = self.deployments[name]
            unmet = beneficiary.fleet.pending_spawn_count()
            if unmet == 0:
                continue
            victims = [
                victim
                for victim in self.deployments
                if self.tenants[victim].priority < self.tenants[name].priority
            ]
            victims.sort(key=lambda v: shares.get(v, {}).get("deficit", 0.0))
            for victim in victims:
                if unmet == 0:
                    break
                deployment = self.deployments[victim]
                for entry in deployment.fleet.topology():
                    if unmet == 0:
                        break
                    source = entry["source"]
                    while unmet > 0 and entry["mirrors"] > 0:
                        if not deployment.fleet.retire_member(source, deployment.step):
                            break
                        entry["mirrors"] -= 1
                        unmet -= 1
                        self.preemptions.append(
                            PreemptionEvent(
                                round=round_index,
                                at_s=self.system.clock.now_s,
                                victim=victim,
                                beneficiary=name,
                                source=source,
                            )
                        )
                deployment.fleet.reap_draining()

    # -- accounting ------------------------------------------------------------

    def report(self) -> dict:
        """Per-tenant stall/hidden/exposed accounting plus pool aggregates."""
        shares = self.system.scheduler.tenant_shares()
        tenants: dict[str, dict] = {}
        total_steps = 0
        wall_end_s = 0.0
        for name, deployment in self.deployments.items():
            history = deployment.history()
            stall = sum(result.data_stall_s for result in history)
            hidden = sum(result.hidden_fetch_s for result in history)
            exposed = sum(result.exposed_fetch_s for result in history)
            total_steps += len(history)
            wall_end_s = max(wall_end_s, deployment.virtual_time_s())
            entry = {
                "steps": float(len(history)),
                "priority": float(self.tenants[name].priority),
                "weight": self.tenants[name].weight,
                "data_stall_time_s": stall,
                "hidden_data_time_s": hidden,
                "exposed_data_time_s": exposed,
                "loader_actors": float(deployment.fleet.total_members()),
                "preemptions_suffered": float(
                    sum(1 for event in self.preemptions if event.victim == name)
                ),
            }
            entry.update(
                {
                    f"tenant_{key}": value
                    for key, value in shares.get(name, {}).items()
                    if key in ("cpu_cores", "share", "deficit")
                }
            )
            tenants[name] = entry
        for name, summary in self._tenant_share_summaries().items():
            tenants.setdefault(name, {}).update(summary)
        return {
            "tenants": tenants,
            "aggregate": {
                "tenant_count": float(len(self.deployments)),
                "total_steps": float(total_steps),
                "virtual_wall_time_s": wall_end_s,
                "aggregate_steps_per_s": total_steps / wall_end_s if wall_end_s > 0 else 0.0,
                "preemptions": float(len(self.preemptions)),
            },
            "utilization": self._pool_utilization(),
        }

    def _tenant_share_summaries(self) -> dict[str, dict[str, float]]:
        summaries: dict[str, dict[str, float]] = {}
        for name, deployment in self.deployments.items():
            summary = deployment.utilization.tenant_summary().get(name)
            if summary:
                summaries[name] = summary
        return summaries

    def _pool_utilization(self) -> dict[str, float]:
        """Mean reserved CPU/memory across the shared pool's nodes, right now."""
        snapshot = self.system.scheduler.cluster_utilization()
        count = max(1, len(snapshot))
        return {
            "mean_node_cpu_utilization": sum(n["cpu"] for n in snapshot.values()) / count,
            "mean_node_memory_utilization": sum(n["memory"] for n in snapshot.values()) / count,
        }

    def shutdown(self) -> None:
        """Shut down every tenant (idempotent, like the per-job facade)."""
        for name in list(self.deployments):
            self.evict(name)
