"""Actor placement scheduler.

Implements the hybrid deployment policy of Sec. 6.2: Source Loaders and Data
Constructors prefer accelerator-pod *sidecar* slots (using idle local
CPU/memory next to the GPUs they feed), spilling to remote CPU pods only when
the sidecar pool is exhausted; the Planner runs on a remote CPU pod for
centralized scheduling.

When several jobs share one cluster the scheduler also acts as the
multi-tenant admission layer: each tenant registers its priority tier
(:meth:`PlacementScheduler.register_tenant`) and every placement carries a
``tenant`` tag.  Per-tenant
reservations are tracked across place/release, and :meth:`tenant_shares`
exposes the equal-share deficit used to order queued placements.  No tenant
is capped: a placement fails only when no node can host it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.actors.node import Node, NodeKind
from repro.errors import SchedulingError


@dataclass(frozen=True)
class PlacementRequest:
    """Resource request for one actor."""

    actor_name: str
    cpu_cores: float
    memory_bytes: int
    prefer: NodeKind = NodeKind.ACCELERATOR
    #: Failure-domain anti-affinity: never place on this node when any other
    #: feasible node exists (shadow/mirror vs. its primary's node, so one
    #: node crash cannot take both copies).  Falls back to the excluded node
    #: only when it is the sole feasible host — a one-node cluster keeps
    #: working, and the decision records the violation via ``colocated``.
    anti_affinity: str | None = None
    #: Allow spilling to the other node kind when the preferred kind is full.
    allow_spill: bool = True
    #: Owning tenant for per-tenant accounting; ``None`` means unmetered.
    tenant: str | None = None


@dataclass
class _TenantUsage:
    cpu_cores: float = 0.0
    memory_bytes: int = 0
    #: Per-actor reservation ledger so release() needs no caller bookkeeping.
    actors: dict[str, tuple[float, int]] = field(default_factory=dict, init=False)


@dataclass(frozen=True)
class PlacementDecision:
    actor_name: str
    node_name: str
    spilled: bool
    #: True when an ``anti_affinity`` request had to colocate with the
    #: excluded node anyway (it was the only feasible host).
    colocated: bool = False


#: Node-choice policies: ``spread`` balances load across nodes (a dedicated
#: cluster's default — wide headroom on every node), ``pack`` consolidates
#: onto the fullest feasible node so a shared pool keeps whole-node holes
#: open for burst-time scale-up instead of fragmenting free capacity.
PLACEMENT_POLICIES = ("spread", "pack")


class PlacementScheduler:
    """Bin-packs placement requests onto a fixed set of nodes."""

    def __init__(self, nodes: list[Node], policy: str = "spread") -> None:
        if not nodes:
            raise SchedulingError("the scheduler needs at least one node")
        if policy not in PLACEMENT_POLICIES:
            raise SchedulingError(
                f"unknown placement policy {policy!r}; expected one of {PLACEMENT_POLICIES}"
            )
        self._nodes = {node.name: node for node in nodes}
        self.policy = policy
        self._priorities: dict[str, int] = {}
        self._usage: dict[str, _TenantUsage] = {}

    @property
    def nodes(self) -> list[Node]:
        return list(self._nodes.values())

    def node(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise SchedulingError(f"unknown node {name!r}") from None

    # -- multi-tenant admission ------------------------------------------------

    def register_tenant(self, tenant: str, priority: int = 0) -> None:
        """Register (or update) one tenant and its priority tier.

        ``priority`` orders tenants into tiers (higher wins) for queued
        placements and preemption; every tenant is entitled to an equal share.
        """
        self._priorities[tenant] = priority
        self._usage.setdefault(tenant, _TenantUsage())

    def tenants(self) -> list[str]:
        return list(self._priorities)

    def _charge(self, request: PlacementRequest) -> None:
        if request.tenant is None:
            return
        usage = self._usage.setdefault(request.tenant, _TenantUsage())
        usage.cpu_cores += request.cpu_cores
        usage.memory_bytes += request.memory_bytes
        usage.actors[request.actor_name] = (request.cpu_cores, request.memory_bytes)

    def refund(self, tenant: str | None, actor_name: str) -> None:
        """Drop one actor's reservation from its tenant's usage ledger."""
        if tenant is None:
            return
        usage = self._usage.get(tenant)
        if usage is None:
            return
        cpu_cores, memory_bytes = usage.actors.pop(actor_name, (0.0, 0))
        usage.cpu_cores = max(0.0, usage.cpu_cores - cpu_cores)
        usage.memory_bytes = max(0, usage.memory_bytes - memory_bytes)

    def adjust_tenant_usage(self, tenant: str | None, actor_name: str, cpu_delta: float) -> None:
        """Re-book a live actor's CPU reservation (worker-pool resizes bypass place())."""
        if tenant is None:
            return
        usage = self._usage.get(tenant)
        if usage is None or actor_name not in usage.actors:
            return
        cpu_cores, memory_bytes = usage.actors[actor_name]
        usage.actors[actor_name] = (cpu_cores + cpu_delta, memory_bytes)
        usage.cpu_cores = max(0.0, usage.cpu_cores + cpu_delta)

    def tenant_usage(self, tenant: str) -> dict[str, float]:
        usage = self._usage.get(tenant, _TenantUsage())
        return {
            "cpu_cores": usage.cpu_cores,
            "memory_bytes": float(usage.memory_bytes),
            "actors": float(len(usage.actors)),
        }

    def tenant_shares(self) -> dict[str, dict[str, float]]:
        """Per-tenant fair-share view of current CPU reservations.

        ``deficit`` is the gap between a tenant's equal entitlement of the
        currently reserved CPU and what it actually holds — positive means the
        tenant is under-served, and queued placements are ordered by
        (priority desc, deficit desc).
        """
        metered = [t for t in self._priorities if t in self._usage]
        total_cpu = sum(self._usage[t].cpu_cores for t in metered)
        entitlement = total_cpu / len(metered) if metered else 0.0
        shares: dict[str, dict[str, float]] = {}
        for tenant in metered:
            usage = self._usage[tenant]
            shares[tenant] = {
                "cpu_cores": usage.cpu_cores,
                "share": usage.cpu_cores / total_cpu if total_cpu else 0.0,
                "entitlement": entitlement,
                "deficit": entitlement - usage.cpu_cores,
                "priority": float(self._priorities[tenant]),
            }
        return shares

    # -- placement -------------------------------------------------------------

    def place(self, request: PlacementRequest) -> PlacementDecision:
        """Choose a node for the request and reserve its resources."""
        preferred = self._candidates(request.prefer)
        chosen = self._best_fit(preferred, request)
        spilled = False
        if chosen is None and request.allow_spill:
            other_kind = (
                NodeKind.CPU if request.prefer is NodeKind.ACCELERATOR else NodeKind.ACCELERATOR
            )
            chosen = self._best_fit(self._candidates(other_kind), request)
            spilled = chosen is not None
        colocated = False
        if chosen is None and request.anti_affinity is not None:
            # Anti-affinity exhausted every other host: fall back to the
            # excluded node (a one-node cluster must still place shadows)
            # and record the violated failure-domain rule on the decision.
            relaxed = replace(request, anti_affinity=None)
            chosen = self._best_fit(self._candidates(request.prefer), relaxed)
            if chosen is None and request.allow_spill:
                other_kind = (
                    NodeKind.CPU
                    if request.prefer is NodeKind.ACCELERATOR
                    else NodeKind.ACCELERATOR
                )
                chosen = self._best_fit(self._candidates(other_kind), relaxed)
                spilled = chosen is not None
            colocated = chosen is not None
        if chosen is None:
            raise SchedulingError(
                f"no node can host actor {request.actor_name!r} "
                f"({request.cpu_cores} cores, {request.memory_bytes} bytes)"
            )
        chosen.reserve(request.actor_name, request.cpu_cores, request.memory_bytes)
        self._charge(request)
        return PlacementDecision(
            request.actor_name, chosen.name, spilled=spilled, colocated=colocated
        )

    def release(
        self,
        actor_name: str,
        node_name: str,
        cpu_cores: float,
        memory_bytes: int,
        tenant: str | None = None,
    ) -> None:
        self.node(node_name).release(actor_name, cpu_cores, memory_bytes)
        self.refund(tenant, actor_name)

    def rebook(self, request: PlacementRequest, node_name: str) -> None:
        """Re-reserve a force-released placement on its original node.

        The restart-after-node-crash path: the node "rebooted", the actor
        restarts in place, and both the node reservation and the tenant's
        usage charge are re-established without running placement again.
        """
        self.node(node_name).reserve(
            request.actor_name, request.cpu_cores, request.memory_bytes
        )
        self._charge(request)

    def _candidates(self, kind: NodeKind) -> list[Node]:
        return [node for node in self._nodes.values() if node.kind is kind]

    def _best_fit(self, nodes: list[Node], request: PlacementRequest) -> Node | None:
        """Pick a feasible node according to the scheduler's policy.

        ``spread`` takes the node with the most free CPU (even load across a
        dedicated cluster); ``pack`` takes the node with the least — tight
        best-fit packing that concentrates co-tenant fleets and preserves
        whole-node headroom for later burst placements.
        """
        feasible = [
            node
            for node in nodes
            if node.name != request.anti_affinity
            and node.can_fit(request.cpu_cores, request.memory_bytes)
        ]
        if not feasible:
            return None
        if self.policy == "pack":
            return min(feasible, key=lambda node: (node.available_cpu, node.available_memory))
        return max(feasible, key=lambda node: (node.available_cpu, node.available_memory))

    def cluster_utilization(self) -> dict[str, dict[str, float]]:
        return {name: node.utilization() for name, node in self._nodes.items()}

    def peak_cluster_utilization(self) -> dict[str, dict[str, float]]:
        """Per-node lifetime reservation peaks (elastic-fleet telemetry)."""
        return {name: node.peak_utilization() for name, node in self._nodes.items()}

    def peak_utilization_summary(self) -> dict[str, float]:
        """Cluster-wide lifetime reservation peaks for run reports.

        Takes the max over every node's reservation high-water mark, so a
        transient elastic scale-up that reserved and released between two
        report samples is still visible.  (Time-averaged utilization comes
        from per-step sampling — see
        :class:`repro.metrics.report.ClusterUtilizationTracker` — not from
        this instantaneous view.)
        """
        peaks = self.peak_cluster_utilization()
        return {
            "peak_node_cpu_utilization": max(
                (u["cpu"] for u in peaks.values()), default=0.0
            ),
            "peak_node_memory_utilization": max(
                (u["memory"] for u in peaks.values()), default=0.0
            ),
        }
