"""Elastic loader fleet: shard groups, capacity scaling and demand routing.

The AutoScaler's :class:`~repro.core.plans.ScalingPlan` directives adjust how
many loader actors serve each source.  This module makes those directives
*real* while keeping the data plane byte-deterministic:

- Every source shard (the ``(source, shard_index)`` file-access state) is
  owned by one :class:`ShardGroup`.  The deploy-time loader is the group's
  **canonical** member: it alone is registered with the Planner, so gathered
  buffer metadata — and therefore every generated plan — is identical to a
  frozen-fleet run regardless of how the fleet scales.
- A scale-up spawns a **mirror** member into the least-populated group of the
  source.  The new actor goes through
  :meth:`~repro.actors.scheduler.PlacementScheduler.place` (node CPU/memory
  budgets gate the scale-up; a rejection is reported back to the scaler via
  :meth:`~repro.core.autoscaler.MixtureDrivenScaler.reconcile_actors` *and*
  queued for retry as soon as a drain-retire frees capacity), and its buffer
  is bootstrapped by cloning the canonical's live replay snapshot
  (:meth:`~repro.core.source_loader.SourceLoader.replay_checkpoint`) — O(buffer)
  regardless of run length, yet byte-identical to replaying the Planner's
  full delivered plan history, because spawns happen at the strict-order
  plan-application point where the canonical's state *is* the replay result.
- Per step, the group's demanded ids are split round-robin across members;
  each member transforms only its slice (cutting the group's wall clock by
  the member count) and afterwards *absorbs* its peers' ids via
  :meth:`~repro.core.source_loader.SourceLoader.replay_demands` — one refill
  per member per step, so every member's read cursor consumes byte-for-byte
  the sequence a lone loader preparing the full list would have consumed.
  Fleet changes are therefore behaviour-invisible: only timing moves.
- A scale-down retires the youngest mirror through
  :meth:`~repro.actors.runtime.ActorSystem.retire_actor`, which drains it,
  releasing its placement reservation.  Canonical members are never retired:
  they own the shard's registered buffer view.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.actors.actor import ActorHandle, ActorState
from repro.actors.node import NodeKind
from repro.core.plans import LoadingPlan, ScalingPlan
from repro.core.source_loader import SourceLoader
from repro.errors import ActorError, PlanError, SchedulingError
from repro.metrics.timeline import FleetEvent


def loader_factory(
    job, filesystem, source, num_workers, buffer_size, shard_index, shard_count,
    deferred_refill=False,
):
    """The actor factory every Source Loader of ``job`` is built (and restarted) by.

    Deploy-time canonicals, their shadows and elastic mirrors differ only in
    these arguments and in how their actor is placed.
    """
    return lambda: SourceLoader(
        source=source,
        filesystem=filesystem,
        num_workers=num_workers,
        buffer_size=buffer_size,
        shard_index=shard_index,
        shard_count=shard_count,
        deferred_refill=deferred_refill,
    )


@dataclass
class ShardGroup:
    """One source shard and the loader members currently serving it."""

    source: str
    shard_index: int
    shard_count: int
    workers_per_actor: int
    memory_bytes: int
    #: Active members, canonical first.  Mirrors append after it.
    members: list[ActorHandle] = field(default_factory=list)

    @property
    def canonical(self) -> ActorHandle:
        return self.members[0]

    @property
    def shard(self) -> tuple[str, int, int]:
        """The key loader checkpoints are kept under."""
        return self.source, self.shard_index, self.shard_count

    @property
    def deferred(self) -> bool:
        """Whether members run in deferred-refill (group-sync) mode."""
        return len(self.members) > 1


class LoaderFleet:
    """Owns the elastic loader fleet of one :class:`MegaScaleData` deployment."""

    def __init__(self, system, filesystem, job) -> None:
        self.system = system
        self.filesystem = filesystem
        self.job = job
        #: Every shard group, in deploy order.
        self.groups: list[ShardGroup] = []
        self._by_source: dict[str, list[ShardGroup]] = {}
        self._group_of: dict[str, ShardGroup] = {}
        #: Members whose drain-mode retirement is still pending.
        self._draining: dict[str, FleetEvent] = {}
        #: Reservation queue: sources whose directed spawns were rejected for
        #: lack of node capacity, with the number of members still owed.
        #: Retried at step boundaries (after drain-retires release their
        #: placements) without needing a fresh scale-up directive.
        self._pending_spawns: dict[str, int] = {}
        self._spawn_serial = 0
        #: Applied (or rejected) fleet mutations, as the same
        #: :class:`~repro.metrics.timeline.FleetEvent` records the overlap
        #: ledger's elasticity section stores — one dataclass, no copying.
        self.changes: list[FleetEvent] = []
        #: Observer invoked with every FleetEvent (the facade wires this to
        #: the system timeline and the overlap ledger's elasticity section).
        self.on_change = None
        #: Causal frontier new mirrors anchor their warm-up at.  ``None``
        #: (dedicated-system default) anchors at the global clock's now — on
        #: a dedicated system that IS this job's frontier.  The facade sets
        #: it to the job's own step-boundary instant on shared (namespaced)
        #: deployments, where the global clock sits at whichever co-tenant
        #: was simulated last and would otherwise charge this tenant a
        #: spurious wait for every mid-run spawn.
        self.spawn_anchor_s: float | None = None

    # -- registration -----------------------------------------------------------------

    def register_canonical(
        self,
        handle: ActorHandle,
        source: str,
        shard_index: int,
        shard_count: int,
        workers_per_actor: int,
        memory_bytes: int,
    ) -> None:
        """Adopt a deploy-time loader as the canonical member of its shard."""
        group = ShardGroup(
            source=source,
            shard_index=shard_index,
            shard_count=shard_count,
            workers_per_actor=workers_per_actor,
            memory_bytes=memory_bytes,
            members=[handle],
        )
        self.groups.append(group)
        self._by_source.setdefault(source, []).append(group)
        self._group_of[handle.name] = group

    # -- introspection ----------------------------------------------------------------

    def member_count(self, source: str) -> int:
        return sum(len(group.members) for group in self._by_source.get(source, []))

    def total_members(self) -> int:
        return sum(len(group.members) for group in self.groups)

    def peak_members(self) -> int:
        """Largest fleet size reached, replayed from the change log."""
        size = len(self.groups)
        peak = size
        for change in self.changes:
            if change.kind == "spawn":
                size += 1
            elif change.kind == "retire":
                size -= 1
            peak = max(peak, size)
        return max(peak, self.total_members())

    def all_handles(self) -> list[ActorHandle]:
        """Every active member (canonicals first within each group)."""
        return [handle for group in self.groups for handle in group.members]

    def group_for(self, handle_name: str) -> ShardGroup | None:
        return self._group_of.get(handle_name)

    def topology(self) -> list[dict]:
        """Per-source fleet shape (mirror count, worker sizing) for checkpoints.

        Plain data only — a whole-run checkpoint stores it and restore
        re-creates the same fleet size by spawning that many mirrors per
        source (exact group assignment is immaterial: mirrors are byte clones
        of their canonical).
        """
        by_source: dict[str, dict] = {}
        for group in self.groups:
            entry = by_source.setdefault(
                group.source,
                {
                    "source": group.source,
                    "mirrors": 0,
                    "workers_per_actor": group.workers_per_actor,
                },
            )
            entry["mirrors"] += max(0, len(group.members) - 1)
            entry["workers_per_actor"] = group.workers_per_actor
        return list(by_source.values())

    def spawn_count(self) -> int:
        return sum(1 for change in self.changes if change.kind == "spawn")

    def retire_count(self) -> int:
        return sum(1 for change in self.changes if change.kind == "retire")

    def rejection_count(self) -> int:
        return sum(1 for change in self.changes if change.kind == "reject")

    # -- demand routing ---------------------------------------------------------------

    def split_demands(self, plan: LoadingPlan) -> dict[ActorHandle, list[int]]:
        """Map each active member to the sample ids it must prepare.

        Stage 1 routes each demanded id to a shard group — to the group whose
        canonical buffers it, falling back to position-round-robin across the
        source's groups (byte-identical to the pre-fleet routing when every
        group is a singleton).  Stage 2 splits a group's ids round-robin
        across its members, so a scaled-up group divides its transform work.
        """
        demands: dict[ActorHandle, list[int]] = {
            handle: [] for handle in self.all_handles()
        }
        for source, sample_ids in plan.source_demands.items():
            groups = self._by_source.get(source)
            if not groups:
                raise PlanError(f"plan demands source {source!r} but no loader serves it")
            group_ids: dict[int, list[int]] = {}
            if len(groups) == 1:
                # Single-shard source (the common case): every id lands on
                # the one group regardless of which buffer holds it, so skip
                # probing the buffers entirely.
                group_ids[id(groups[0])] = list(sample_ids)
            else:
                buffered: dict[int, ShardGroup] = {}
                for group in groups:
                    loader: SourceLoader = group.canonical.instance()
                    for sample_id in loader.buffered_among(sample_ids):
                        buffered.setdefault(sample_id, group)
                for position, sample_id in enumerate(sample_ids):
                    group = buffered.get(sample_id, groups[position % len(groups)])
                    group_ids.setdefault(id(group), []).append(sample_id)
            for group in groups:
                ids = group_ids.get(id(group), [])
                count = len(group.members)
                for index, member in enumerate(group.members):
                    demands[member].extend(ids[index::count])
        return demands

    def sync_after_prepare(self, demands: dict[ActorHandle, list[int]]) -> None:
        """Absorb peers' demands on every deferred-mode member (one refill each).

        Called once per step after the step's prepare work finished mutating
        buffers (the pipeline's preparing→fetching transition).  Members in
        legacy mode (singleton groups) already refilled inside their prepare
        epilogue and are skipped, so the frozen-fleet fast path stays
        call-for-call identical.
        """
        by_group: dict[int, tuple[ShardGroup, dict[str, list[int]]]] = {}
        for handle, sample_ids in demands.items():
            group = self._group_of.get(handle.name)
            if group is None:
                continue
            entry = by_group.setdefault(id(group), (group, {}))
            entry[1][handle.name] = list(sample_ids)
        for group, slices in by_group.values():
            if not group.deferred:
                continue
            all_ids = [
                sample_id
                for member in group.members
                for sample_id in slices.get(member.name, [])
            ]
            if not all_ids:
                continue
            for member in group.members:
                mine = set(slices.get(member.name, []))
                others = [sample_id for sample_id in all_ids if sample_id not in mine]
                # refill=True: in deferred mode the member's own prepare
                # skipped its refill; this call performs the step's single
                # top-up even when it absorbed nothing.
                member.call("replay_demands", others, True)

    # -- scaling ----------------------------------------------------------------------

    def apply_scaling(self, scaling: ScalingPlan, step: int, planner, scaler=None) -> None:
        """Apply a piggybacked scaling plan at a step boundary.

        Spawns mirrors for scale-ups (placement permitting) and retires the
        youngest mirrors for scale-downs.  When the applied count diverges
        from the directive (placement rejection, canonical floor), the scaler
        is reconciled so its view tracks the deployed fleet.
        """
        for directive in scaling.directives:
            source = directive.source
            groups = self._by_source.get(source)
            if not groups:
                continue
            workers = int(getattr(directive, "target_workers_per_actor", 0) or 0)
            if workers > 0:
                self.resize_workers(source, workers, step)
            floor = len(groups)  # canonicals are never retired
            target = max(floor, directive.target_actors)
            current = self.member_count(source)
            while current < target:
                if self.spawn_member(source, step, planner) is None:
                    # Placement rejected: stop trying this boundary, but keep
                    # the unmet demand queued so it fires once capacity frees.
                    self._pending_spawns[source] = target - current
                    break
                current += 1
            else:
                self._pending_spawns.pop(source, None)
            while current > target:
                if not self.retire_member(source, step):
                    break
                current -= 1
            if scaler is not None and current != directive.target_actors:
                scaler.reconcile_actors(source, current)

    def resize_workers(self, source: str, workers_per_actor: int, step: int) -> bool:
        """Apply a ``target_workers_per_actor`` directive to every member.

        Re-books each member's CPU reservation at the new pool size
        (:meth:`ActorSystem.resize_actor_pool`) and resizes the
        loader's transform worker pool in place; future mirrors inherit the
        new size via the shard group.  Returns ``True`` when every member was
        resized; a member whose node cannot fit the grown reservation keeps
        its old pool (recorded as a rejected resize) without blocking peers.
        """
        if workers_per_actor < 1:
            raise PlanError("target_workers_per_actor must be positive")
        ok = True
        for group in self._by_source.get(source, []):
            if group.workers_per_actor == workers_per_actor:
                continue
            for member in group.members:
                try:
                    self.system.resize_actor_pool(
                        member.name, cpu_cores=workers_per_actor * 1.0
                    )
                except SchedulingError as exc:
                    ok = False
                    self._record(
                        FleetEvent(
                            kind="resize",
                            step=step,
                            at_s=self.system.clock.now_s,
                            source=source,
                            actor=member.name,
                            detail=f"rejected: {exc}",
                        )
                    )
                    continue
                member.call("resize_worker_pool", workers_per_actor)
                self._record(
                    FleetEvent(
                        kind="resize",
                        step=step,
                        at_s=self.system.clock.now_s,
                        source=source,
                        actor=member.name,
                        node=self.system.actor_node(member.name),
                        detail=f"workers {group.workers_per_actor} -> {workers_per_actor}",
                    )
                )
            group.workers_per_actor = workers_per_actor
        return ok

    def pending_spawn_count(self) -> int:
        """Queued spawns awaiting capacity, over all sources."""
        return sum(self._pending_spawns.values())

    def retry_pending_spawns(self, step: int, planner, scaler=None) -> int:
        """Fire queued spawns that a freed placement can now host.

        Called at step boundaries after drain-retires are reaped; each
        success reconciles the scaler so its fleet view tracks the deployed
        count without waiting for a fresh directive.  Returns how many
        members were spawned.
        """
        spawned = 0
        for source in list(self._pending_spawns):
            while self._pending_spawns.get(source, 0) > 0:
                if self.spawn_member(source, step, planner, record_reject=False) is None:
                    break  # still no capacity; keep the reservation queued
                self._pending_spawns[source] -= 1
                spawned += 1
                if scaler is not None:
                    scaler.reconcile_actors(source, self.member_count(source))
            if self._pending_spawns.get(source, 0) <= 0:
                self._pending_spawns.pop(source, None)
        return spawned

    def spawn_member(
        self, source: str, step: int, planner, record_reject: bool = True
    ) -> ActorHandle | None:
        """Place and bootstrap one mirror member for ``source``.

        Returns the new handle, or ``None`` when no node could host it (the
        rejection is recorded and surfaced through :attr:`changes`, unless
        ``record_reject=False`` — capacity probes from the reservation-queue
        retry path, whose original rejection was already recorded).
        """
        groups = self._by_source.get(source)
        if not groups:
            raise PlanError(f"no shard group serves source {source!r}")
        group = min(groups, key=lambda g: (len(g.members), g.shard_index))
        canonical: SourceLoader = group.canonical.instance()
        self._spawn_serial += 1
        name = self.job.scoped(f"loader/{source}/{group.shard_index}m{self._spawn_serial}")
        job = self.job
        try:
            handle = self.system.create_actor(
                loader_factory(
                    job, self.filesystem, canonical.source, group.workers_per_actor,
                    canonical.buffer_size, group.shard_index, group.shard_count,
                    deferred_refill=True,
                ),
                name=name,
                cpu_cores=group.workers_per_actor * 1.0,
                memory_bytes=group.memory_bytes,
                # Mirrors are sidecar-only: they exist to split a hot source's
                # fetch lanes right next to the constructors they feed, so a
                # burst-time spawn must land on accelerator-pod headroom (or
                # queue) rather than fall back to a remote CPU pod.
                prefer=NodeKind.ACCELERATOR,
                allow_spill=False,
                concurrency=job.prefetch_depth + 1,
                tenant=job.tenant,
                free_from_s=self.spawn_anchor_s,
                # Failure domain: keep the mirror off its canonical's node so
                # a node crash cannot take out a shard group's only replicas
                # together (relaxed by the scheduler when it is the sole
                # feasible host, e.g. single-node test clusters).
                anti_affinity=self.system.actor_node(group.canonical.name),
            )
        except SchedulingError as exc:
            if record_reject:
                self._record(
                    FleetEvent(
                        kind="reject",
                        step=step,
                        at_s=self.system.clock.now_s,
                        source=source,
                        actor=name,
                        detail=str(exc),
                    )
                )
            return None

        # Bounded bootstrap: clone the canonical's live replay snapshot.
        # Spawns happen at the strict-order plan-application point, where the
        # canonical's buffer/cursor state equals exactly what replaying every
        # delivered plan against a pristine loader would produce — so the
        # clone is byte-identical to the old full-history replay, at O(buffer)
        # cost instead of O(steps).
        snapshot = group.canonical.call("replay_checkpoint")
        handle.call("restore_replay_checkpoint", snapshot)

        group.members.append(handle)
        self._group_of[handle.name] = group
        self._apply_group_mode(group)
        self._record(
            FleetEvent(
                kind="spawn",
                step=step,
                at_s=self.system.clock.now_s,
                source=source,
                actor=handle.name,
                node=self.system.actor_node(handle.name),
                detail=f"mirror of shard {group.shard_index}",
            )
        )
        return handle

    def retire_member(self, source: str, step: int) -> bool:
        """Retire the youngest mirror serving ``source`` (drain mode).

        Returns ``True`` when a mirror was found; the placement reservation is
        released immediately when the member is idle, otherwise the member
        drains and is reaped at a later step boundary.
        """
        groups = self._by_source.get(source, [])
        candidates = [group for group in groups if len(group.members) > 1]
        if not candidates:
            return False
        group = max(candidates, key=lambda g: (len(g.members), g.shard_index))
        member = group.members.pop()  # youngest mirror; canonical is index 0
        self._group_of.pop(member.name, None)
        self._apply_group_mode(group)
        node = self.system.actor_node(member.name)
        change = FleetEvent(
            kind="retire",
            step=step,
            at_s=self.system.clock.now_s,
            source=source,
            actor=member.name,
            node=node,
            detail=f"mirror of shard {group.shard_index}",
        )
        try:
            immediate = self.system.retire_actor(member.name)
        except ActorError:
            # The mirror already failed/stopped: release its reservation
            # directly rather than leaking the placement.
            try:
                self.system.stop_actor(member.name)
            except ActorError:
                pass  # already removed from the system entirely
            immediate = True
        if immediate:
            self._record(change)
        else:
            self._draining[member.name] = change
        return True

    def reap_draining(self) -> int:
        """Record retirements whose drain has since completed; returns count."""
        reaped = 0
        for name in list(self._draining):
            if not self.system.retiring(name):
                self._record(self._draining.pop(name))
                reaped += 1
        return reaped

    def replace_member(self, old: ActorHandle, new: ActorHandle) -> None:
        """Swap a failed member for its recovered replacement (failover)."""
        group = self._group_of.pop(old.name, None)
        if group is None:
            return
        for index, member in enumerate(group.members):
            if member is old or member.name == old.name:
                group.members[index] = new
                break
        self._group_of[new.name] = group
        self._apply_group_mode(group)

    def standby_mirror(self, name: str) -> ActorHandle | None:
        """The youngest healthy mirror in ``name``'s shard group, if any.

        Mirrors absorb every member's demands each step, so any mirror is an
        exact live replica of the canonical's buffer — a hot standby that can
        take over the canonical slot with zero replay.
        """
        group = self._group_of.get(name)
        if group is None or len(group.members) < 2:
            return None
        for member in reversed(group.members[1:]):
            if member.name == name or self.system.retiring(member.name):
                continue
            try:
                if member.state is ActorState.RUNNING:
                    return member
            except ActorError:
                continue
        return None

    def promote_mirror(self, failed: ActorHandle, mirror: ActorHandle, step: int) -> None:
        """Move ``mirror`` into ``failed``'s canonical slot (hot standby)."""
        group = self._group_of.pop(failed.name, None)
        if group is None:
            raise PlanError(f"loader {failed.name!r} is not a fleet member")
        if mirror not in group.members:
            raise PlanError(f"{mirror.name!r} is not a mirror of {failed.name!r}'s group")
        group.members.remove(mirror)
        for index, member in enumerate(group.members):
            if member is failed or member.name == failed.name:
                group.members[index] = mirror
                break
        self._apply_group_mode(group)
        self._record(
            FleetEvent(
                kind="promote",
                step=step,
                at_s=self.system.clock.now_s,
                source=group.source,
                actor=mirror.name,
                node=self.system.actor_node(mirror.name),
                detail=f"hot-standby for {failed.name}",
            )
        )

    # -- internals --------------------------------------------------------------------

    def _apply_group_mode(self, group: ShardGroup) -> None:
        """Keep every member's refill mode consistent with the group size."""
        deferred = group.deferred
        for member in group.members:
            member.instance().deferred_refill = deferred

    def _record(self, change: FleetEvent) -> None:
        self.changes.append(change)
        if self.on_change is not None:
            self.on_change(change)
