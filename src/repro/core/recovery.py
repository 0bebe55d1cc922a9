"""Fault absorption and deterministic replay for the loader fleet.

:class:`FleetRecovery` holds what the step driver does when a planning-path
call fails — heal the member (mirror promotion, shadow promotion or restart
with bounded replay), degrade its source (renormalize mode) or wait the
fault window out (strict mode) — and the heal / rewind / checkpoint
primitives the pipeline's prepare- and fetch-stage policy, its flush and the
whole-run save/restore are built from.
"""

from __future__ import annotations

from typing import Callable

from repro.actors.actor import ActorHandle, ActorState
from repro.core.fault_tolerance import DEGRADED_WAIT_ATTEMPTS, WAIT_RETRY
from repro.core.planner import Planner
from repro.errors import ActorDead, ActorTimeout, PlanError, ReproError, StorageError


class FleetRecovery:
    """Recovery mechanics over one deployment's fleet, planner and FT manager."""

    def __init__(
        self,
        fleet,
        fault_manager,
        planner_handle,
        loader_handles: list,
        degradation,
        heal: Callable[[ActorHandle, int], ActorHandle],
    ) -> None:
        self.system = fleet.system
        self.fleet = fleet
        self.fault_manager = fault_manager
        self.planner_handle = planner_handle
        #: The facade's canonical-loader list, shared: failover swaps entries
        #: in place so the facade, the Planner registry and this agree.
        self.loader_handles = loader_handles
        #: Renormalize-mode policy (None under ``degraded_mode="strict"``).
        self.degradation = degradation
        #: ``MegaScaleData.recover_fleet_member`` — the one entry point every
        #: heal goes through, so each recovery is observable as a facade
        #: call; its body is :meth:`recover_member`.
        self.heal = heal
        #: Replay base of the newest ``run`` entry (the step its restore
        #: replays plans after), ``None`` before the first save or restore.
        self.run_base: int | None = None

    # -- fault absorption ------------------------------------------------------------------

    def absorb_gather_fault(self, step: int, attempt: int) -> bool:
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
        # restarted instance cannot carry.  (The pipeline reinstalls the sized
        # sampling strategy before it re-issues the plan.)
        if self.system.actor_state(self.planner_handle.name) is not ActorState.RUNNING:
            try:
                ft.recover_coordinator(self.planner_handle, step)
            except (ActorDead, ActorTimeout, StorageError):
                pass
            else:
                planner: Planner = self.planner_handle.instance()
                planner.register_loaders(self.loader_handles)
                return True
        failed = ft.detect_failures(self.probe_handles())
        dark: set[str] = set()
        for handle in failed:
            if self.system.actor_state(handle.name) is ActorState.RUNNING:
                # Alive but dark (source blackout, control-plane blip) or
                # merely slow: restarting a live instance would discard its
                # prefetch cursor and fork the sample stream — wait the
                # window out (strict) or degrade the source (renormalize).
                dark.add(self.member_source(handle))
                continue
            try:
                self.heal(handle, step)
            except (ActorDead, ActorTimeout, StorageError):
                dark.add(self.member_source(handle))
        if failed and not dark:
            return True
        if dark and self.degradation is not None and self.degradation.can_degrade(dark):
            self.degradation.degrade(dark, step)
            return True
        if attempt >= DEGRADED_WAIT_ATTEMPTS:
            return False
        ft.sleep(WAIT_RETRY.delay_s(attempt, f"gather-wait.{step}"))
        return True

    def probe_handles(self) -> list:
        """Loaders worth heartbeating: everything not already degraded dark."""
        if self.degradation is None or not self.degradation.dark:
            return list(self.loader_handles)
        dark = self.degradation.dark
        return [
            handle
            for handle in self.loader_handles
            if self.member_source(handle) not in dark
        ]

    def member_source(self, handle) -> str:
        """The source a fleet member serves (survives a dead instance)."""
        group = self.fleet.group_for(handle.name)
        if group is not None:
            return group.source
        try:
            return handle.instance().source.name
        except ReproError:  # the record may already be gone
            return handle.name

    def revive_source(self, source: str, step: int) -> bool:
        """Heal and rewind a dark source's loaders; True once all answer again.

        The loaders are rewound to the delivered prefix (checkpoint restore +
        plan-suffix replay) before they rejoin the gather set, so their
        buffers are byte-exact replicas of what an uninterrupted no-demand
        stretch would have left behind.
        """
        def members():
            return [h for h in self.loader_handles if self.member_source(h) == source]

        # Members that died while the source was dark (a crash whose
        # recovery failed mid-outage) can never answer the probe; revive
        # them first — recovery failing again just means the blocking
        # fault has not cleared, so the source stays dark this round.
        try:
            for handle in members():
                if self.system.actor_state(handle.name) is not ActorState.RUNNING:
                    self.heal(handle, step)
        except (ActorDead, ActorTimeout, StorageError):
            return False
        handles = members()
        if not handles or not all(self.fault_manager.probe_loader(h) for h in handles):
            return False
        self.rewind_members(step, handles=handles)
        return True

    def ride_out(self, attempt: Callable[[], object], handle, step: int, wait_key: str):
        """Run ``attempt`` until it succeeds, restarting or waiting on faults.

        Chaos faults fire *before* the target method body runs, so re-issuing
        the identical call is always safe.  ``ActorDead`` restarts ``handle``
        (a coordinator: state restored from its state dict) at most twice;
        ``ActorTimeout`` means the actor is alive but inside a fault window
        outlasting the per-call retry policy — wait it out on the clock like
        strict mode, up to the degraded-wait budget.
        """
        ft = self.fault_manager
        restarts = 0
        waits = 0
        while True:
            try:
                return attempt()
            except ActorDead:
                restarts += 1
                if restarts > 2:
                    raise
                ft.recover_coordinator(handle, step)
            except ActorTimeout:
                waits += 1
                if waits >= DEGRADED_WAIT_ATTEMPTS:
                    raise
                ft.sleep(WAIT_RETRY.delay_s(waits, wait_key))

    def call_constructor(self, handle, step: int, rank: int):
        """``get_batch(step, rank)`` with retry/backoff; a dead constructor restarts."""
        def call():
            return self.fault_manager.call_with_retry(
                lambda: handle.call("get_batch", step, rank), actor=handle.name
            )

        return self.ride_out(call, handle, step, f"constructor-wait.{handle.name}")

    # -- replay ----------------------------------------------------------------------------

    def resync(self, handle, limit_step: int, planner: Planner) -> None:
        """Bring ``handle``'s buffer to the delivered prefix ``< limit_step``.

        Restores the newest differential checkpoint of its shard below
        ``limit_step`` (every member of a shard holds the same state at a
        sync point, so one checkpoint serves canonical, mirror and promoted
        shadow alike), or resets it pristine when there is none, and replays
        the plan suffix past it (each record's demands for the loader's
        source) — bounded in run length, byte-exact with an uninterrupted run.  The one replay routine
        of flush, failover and whole-run restore.  A suffix that starts below
        the Planner's replay floor raises :class:`PlanError`
        (:meth:`Planner.plans_since`).
        """
        loader = handle.instance()
        checkpoint = self.fault_manager.shard_checkpoint(
            (loader.source.name, loader.shard_index, loader.shard_count), limit_step - 1
        )
        if checkpoint is not None:
            handle.call("restore_replay_checkpoint", checkpoint["replay"])
            suffix_after = checkpoint["step"]
        else:
            handle.call("reset_for_replay")
            suffix_after = -1
        for plan in planner.plans_since(suffix_after):
            if plan.step >= limit_step:
                continue
            demanded = plan.source_demands.get(loader.source.name)
            if demanded:
                handle.call("replay_demands", list(demanded))

    def rewind_members(self, limit_step: int, handles=None) -> None:
        """Rewind loaders (default: the whole fleet) to the prefix ``< limit_step``.

        Shared by the pipeline flush and source re-admission.  A replay the
        compacted plan records cannot serve raises.
        """
        planner: Planner = self.planner_handle.instance()
        for handle in handles if handles is not None else self.fleet.all_handles():
            try:
                self.resync(handle, limit_step, planner)
            except PlanError:
                raise
            except ReproError:  # unreachable members recover later
                continue

    def recover_member(self, handle, at_step: int):
        """Promote/restart a failed fleet member and resync its buffer state.

        Recovery picks the cheapest sound path, in order:

        1. **Mirror promotion** (hot standby): a failed canonical whose shard
           group has a live mirror adopts that mirror in place.  Mirrors
           absorb every member's demands each step, so the mirror *is* the
           canonical's state — zero replay.
        2. **Shadow promotion / in-place restart** with **bounded replay**:
           the replacement restores its shard's latest differential
           checkpoint (buffer + cursor snapshot taken at a past sync point)
           and replays only the post-checkpoint plan suffix — Sec. 6.1
           differential checkpoint + replay, flat in run length.  With no
           checkpoint (fresh deployments), it falls back to the
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
            self._adopt(handle, promoted, planner)
            try:
                self.system.stop_actor(handle.name)
            except ReproError:  # the failed actor may be gone
                pass
            return promoted

        promoted = self.fault_manager.recover_loader(handle, at_step, group.shard)
        self._adopt(handle, promoted, planner)
        self.fleet.replace_member(handle, promoted)
        self.resync(promoted, at_step, planner)
        return promoted

    def _adopt(self, failed, promoted, planner: Planner) -> None:
        """Put ``promoted`` in ``failed``'s canonical slot and re-register."""
        for index, existing in enumerate(self.loader_handles):
            if existing is failed or existing.name == failed.name:
                self.loader_handles[index] = promoted
                break
        planner.register_loaders(self.loader_handles)

    def checkpoint_members(self, step: int, force: bool = False) -> int:
        """Checkpoint every shard at a consistent sync point.

        Called once per step right after :meth:`LoaderFleet.sync_after_prepare`
        — the instant where every plan up to and including ``step`` has been
        applied to every member and nothing beyond has started, so all
        members of a shard hold the same state and one live member's
        snapshot is a valid base for bounded suffix replay of any of them.
        The differential interval gate inside
        :meth:`FaultToleranceManager.checkpoint_loaders` keeps this cheap on
        non-interval steps.  Returns how many shards were checkpointed.
        """
        live = []
        for group in self.fleet.groups:
            for handle in group.members:
                try:
                    # A member that died since the last boundary is skipped
                    # here and recovered at its next RPC.
                    handle.instance()
                except ReproError:
                    continue
                live.append(handle)
                break
        return self.fault_manager.checkpoint_loaders(live, step, force=force)

    def compact(self, consumed: int) -> None:
        """Advance the replay floor and drop the plan records below it.

        The floor is the oldest step any consumer may still replay from: per
        shard the oldest checkpoint the fault manager keeps for it, or
        genesis (-1) when that one is not below the consume position
        ``consumed`` (a flush there could need none of them); the base of
        the newest ``run`` entry; and, inside :meth:`Planner.compact_below`,
        the Planner's unpersisted backlog.
        """
        bases = [] if self.run_base is None else [self.run_base]
        for group in self.fleet.groups:
            base = self.fault_manager.oldest_checkpoint_step(group.shard)
            bases.append(base if base < consumed else -1)
        self.planner_handle.instance().compact_below(min(bases, default=-1))
