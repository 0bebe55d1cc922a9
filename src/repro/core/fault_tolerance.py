"""Fault tolerance: shadow loaders, differential checkpointing, replay.

Recovery is decoupled by component role (Sec. 6.1):

- Core coordinators (Planner, Data Constructors) persist state to the GCS and
  are restarted automatically; prefetch buffers mask the restart latency.
- Source Loaders are protected by hot-standby *shadow loaders* promoted on
  failure detection (RPC timeouts / payload integrity checks), combined with
  *differential checkpointing*: loaders snapshot less frequently than the
  Planner and the gap is bridged by deterministic replay of the Planner's
  plan history.

Every loader failover takes one path: ``MegaScaleData.recover_fleet_member``
→ :meth:`repro.core.recovery.FleetRecovery.recover_member`, which picks the
replacement here (mirror, shadow or in-place restart) and then resyncs it.

A loader checkpoint is one entry ``{step, replay}`` taken at a fleet sync
point, where every member of a shard holds the same state, so it is keyed by
the shard ``(source, shard_index, shard_count)``, not by the actor that
served it, and lives in one place: the manager's short per-shard history.
Nothing writes it to the checkpoint store; the durable copy a whole-run
restore needs is the one the ``run`` entry embeds
(:func:`repro.core.durability.save_run_checkpoint`).

The retry, wait-out and breaker policies are module constants, not knobs;
the one setting is the differential checkpoint interval.
"""

from __future__ import annotations

import zlib
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.actors.actor import ActorHandle, ActorState
from repro.actors.runtime import ActorSystem
from repro.core.source_loader import SourceLoader
from repro.errors import ActorDead, ActorTimeout, ReproError

#: A loader shard: ``(source, shard_index, shard_count)``.
Shard = tuple[str, int, int]

#: How many checkpoint entries are retained per shard.  Recovery only ever
#: needs the newest entry at or below the failed step, but keeping a short
#: history lets a flush discard entries for never-delivered future steps
#: without losing the last delivered one.
CHECKPOINT_HISTORY = 4
#: Modelled recovery latencies: promoting a hot standby (shadow or fleet
#: mirror), restarting an actor in place, and replaying one plan.
SHADOW_PROMOTION_LATENCY_S = 0.2
COORDINATOR_RESTART_LATENCY_S = 2.0
REPLAY_LATENCY_PER_STEP_S = 0.01


class FaultToleranceError(ReproError):
    """Raised when recovery cannot proceed (e.g. no shadow available)."""


@dataclass
class RecoveryEvent:
    """One recovery action taken by the manager."""

    step: int
    component: str
    kind: str
    detail: str = ""
    recovery_latency_s: float = 0.0


#: Fractional jitter: backoff delays are stretched by up to this much.
RETRY_JITTER = 0.25


@dataclass(frozen=True)
class RetryPolicy:
    """Jittered exponential backoff for transient RPC failures.

    Delays are deterministic: the jitter fraction is derived from a CRC of
    ``(key, attempt)`` rather than a live RNG, so retried recovery timelines
    replay identically under the virtual clock (and across soak reruns).
    """

    base_delay_s: float
    max_delay_s: float

    def delay_s(self, attempt: int, key: str = "") -> float:
        """Backoff before retry ``attempt`` (1-based), jittered by ``key``."""
        base = min(self.max_delay_s, self.base_delay_s * (2 ** max(0, attempt - 1)))
        frac = (zlib.crc32(f"{key}:{attempt}".encode()) % 1000) / 999.0
        return base * (1.0 + RETRY_JITTER * frac)


#: Backoff of :meth:`FaultToleranceManager.call_with_retry`, and how many
#: attempts one call gets.  A small cap keeps call latency bounded.
RPC_RETRY = RetryPolicy(base_delay_s=0.05, max_delay_s=2.0)
RETRY_ATTEMPTS = 5
#: Backoff of the *wait-out* loops (strict mode riding out a fault window),
#: and how many heal-sleep-retry rounds they spend before giving up.  The
#: large cap lets the bounded budget span windows hundreds of virtual
#: seconds long: roughly ``WAIT_RETRY.max_delay_s * DEGRADED_WAIT_ATTEMPTS``.
WAIT_RETRY = RetryPolicy(base_delay_s=0.5, max_delay_s=12.0)
DEGRADED_WAIT_ATTEMPTS = 40
#: Consecutive failures before an actor's circuit breaker opens.
BREAKER_THRESHOLD = 3
#: Ring-buffer capacity for retained :class:`RecoveryEvent` records;
#: aggregate counts/latencies keep exact totals past eviction.
EVENTS_LIMIT = 256


class CircuitBreaker:
    """Per-actor consecutive-failure counter gating the retry loop.

    An actor whose RPCs keep failing trips its breaker after
    :data:`BREAKER_THRESHOLD` consecutive failures; callers then skip further
    in-place retries and route the actor straight to recovery.  A successful
    call — or a completed recovery — closes the breaker again.
    """

    def __init__(self) -> None:
        self._streaks: dict[str, int] = {}

    def record_failure(self, name: str) -> None:
        self._streaks[name] = self._streaks.get(name, 0) + 1

    def record_success(self, name: str) -> None:
        self._streaks.pop(name, None)

    def reset(self, name: str) -> None:
        self._streaks.pop(name, None)

    def is_open(self, name: str) -> bool:
        return self._streaks.get(name, 0) >= BREAKER_THRESHOLD


class FaultToleranceManager:
    """Detects failures and drives recovery for loaders and coordinators.

    ``loader_checkpoint_interval`` is the differential checkpoint interval:
    loaders snapshot at multiples of it (deployments pass the job's
    ``replay_window``).
    """

    def __init__(self, system: ActorSystem, loader_checkpoint_interval: int = 50) -> None:
        self.system = system
        self.loader_checkpoint_interval = loader_checkpoint_interval
        #: Primary loader name -> its hot-standby shadow.
        self._shadows: dict[str, ActorHandle] = {}
        #: Per-shard checkpoint history, newest last, at most
        #: :data:`CHECKPOINT_HISTORY` entries.
        self._checkpoints: dict[Shard, list[dict]] = {}
        #: Bounded recovery log: long chaos soaks retain only the newest
        #: :data:`EVENTS_LIMIT` records while the aggregates below keep exact
        #: lifetime totals (so ETTR never drifts when the ring evicts).
        self._events: deque[RecoveryEvent] = deque(maxlen=EVENTS_LIMIT)
        self._event_counts: dict[str, int] = {}
        self._event_latency: dict[str, float] = {}
        self._events_total = 0
        self._latency_total = 0.0
        #: Per-actor circuit breaker consulted by the retry loop.
        self.breaker = CircuitBreaker()

    # -- retry / backoff policy ------------------------------------------------------------------

    def sleep(self, delay_s: float) -> None:
        """Wait ``delay_s`` clock units on whichever backend is active.

        Virtual backend: advances the shared clock (which also expires fault
        windows — backoff is literally what lets a blackout end).  Wallclock
        backend: sleeps the scaled real duration.
        """
        clock = self.system.clock
        if hasattr(clock, "sleep_virtual"):
            clock.sleep_virtual(delay_s)
        else:
            clock.advance(delay_s)

    def call_with_retry(self, fn: Callable[[], object], actor: str | None = None):
        """Invoke ``fn``, a Data Constructor's ``get_batch``, under :data:`RPC_RETRY`.

        An :class:`ActorTimeout` backs off with deterministic jitter keyed by
        ``actor``, up to :data:`RETRY_ATTEMPTS` attempts.
        When ``actor`` is given, failures feed its circuit breaker; an *open*
        breaker short-circuits the loop (the first failure re-raises
        immediately) so repeat offenders route straight to recovery instead
        of burning the whole backoff budget.
        """
        key = f"data_constructor.get_batch.{actor or ''}"
        last_exc: BaseException | None = None
        for attempt in range(1, RETRY_ATTEMPTS + 1):
            try:
                result = fn()
            except ActorTimeout as exc:
                last_exc = exc
                if actor is not None:
                    self.breaker.record_failure(actor)
                    if self.breaker.is_open(actor):
                        raise
                if attempt == RETRY_ATTEMPTS:
                    raise
                self.sleep(RPC_RETRY.delay_s(attempt, key))
            else:
                if actor is not None:
                    self.breaker.record_success(actor)
                return result
        raise last_exc  # pragma: no cover - loop always returns or raises

    # -- recovery log ----------------------------------------------------------------------------

    def _append_event(self, event: RecoveryEvent) -> None:
        self._events.append(event)
        self._event_counts[event.kind] = self._event_counts.get(event.kind, 0) + 1
        self._event_latency[event.kind] = (
            self._event_latency.get(event.kind, 0.0) + event.recovery_latency_s
        )
        self._events_total += 1
        self._latency_total += event.recovery_latency_s

    # -- shadow loaders ------------------------------------------------------------------------

    def register_shadow(self, primary: ActorHandle, shadow: ActorHandle) -> None:
        """Pair a primary Source Loader with a hot-standby shadow."""
        self._shadows[primary.name] = shadow

    def shadow_for(self, primary_name: str) -> ActorHandle | None:
        return self._shadows.get(primary_name)

    def shadow_count(self) -> int:
        return len(self._shadows)

    def shadow_memory_bytes(self) -> int:
        """Live memory held by shadow loaders (the Fig. 16 FT memory cost)."""
        total = 0
        for shadow in self._shadows.values():
            if shadow.state is ActorState.RUNNING:
                total += shadow.instance().ledger.total_bytes()
        return total

    # -- checkpointing -------------------------------------------------------------------------------

    def checkpoint_loaders(
        self, handles: list[ActorHandle], step: int, force: bool = False
    ) -> int:
        """Snapshot the shard each of ``handles`` serves, at multiples of
        ``loader_checkpoint_interval``; returns how many shards were
        checkpointed.

        The caller passes one member per shard and guarantees each sits at a
        step boundary with every plan up to ``step`` applied — the fleet sync
        point, where every member of a shard holds the same state — so the
        entry's replay snapshot (:meth:`SourceLoader.replay_checkpoint`) is a
        valid base for any of them: recovery restores it verbatim and replays
        only the post-checkpoint plan suffix.  ``force=True`` bypasses the
        interval gate (whole-run save and restore).  The entry lives only in
        the manager's short per-shard history; a whole-run save embeds what
        it needs of it in the ``run`` entry.
        """
        if not force and step % self.loader_checkpoint_interval != 0:
            return 0
        for handle in handles:
            loader = handle.instance()
            if not isinstance(loader, SourceLoader):
                raise FaultToleranceError(f"{handle.name!r} is not a source loader")
            replay = loader.replay_checkpoint()
            shard = (replay["source"], replay["shard_index"], replay["shard_count"])
            history = self._checkpoints.setdefault(shard, [])
            history[:] = [e for e in history if e["step"] != step]
            history.append({"step": step, "replay": replay})
            history.sort(key=lambda e: e["step"])
            del history[:-CHECKPOINT_HISTORY]
        return len(handles)

    def shard_checkpoint(self, shard: Shard, max_step: int) -> dict | None:
        """Newest checkpoint of ``shard`` at or below ``max_step``."""
        for entry in reversed(self._checkpoints.get(shard, [])):
            if entry["step"] <= max_step:
                return entry
        return None

    def oldest_checkpoint_step(self, shard: Shard) -> int:
        """Step of the oldest checkpoint kept for ``shard``: the earliest
        step its replay may start from (-1, genesis, when none is kept)."""
        history = self._checkpoints.get(shard)
        return history[0]["step"] if history else -1

    def adopt_checkpoints(self, checkpoints: dict[Shard, dict | None]) -> None:
        """Make each shard's history the one entry ``checkpoints`` holds for
        it (``None``: none, a pristine shard) — whole-run restore."""
        self._checkpoints = {
            shard: [entry] for shard, entry in checkpoints.items() if entry is not None
        }

    def discard_checkpoints_after(self, step: int) -> int:
        """Drop checkpoint entries for steps ``> step`` (pipeline flush).

        Checkpoints taken at the sync point of a prefetched step whose
        delivery was later flushed include demands that will never be
        delivered; restoring one would diverge from the re-planned timeline.
        Returns how many entries were discarded.
        """
        dropped = 0
        for history in self._checkpoints.values():
            kept = [e for e in history if e["step"] <= step]
            dropped += len(history) - len(kept)
            history[:] = kept
        return dropped

    # -- detection -------------------------------------------------------------------------------------

    def probe_loader(self, handle: ActorHandle) -> bool:
        """Heartbeat a loader; returns True when it is healthy."""
        try:
            payload = handle.call("heartbeat_payload")
        except (ActorDead, ActorTimeout):
            return False
        # Payload integrity check: a healthy loader reports its source.
        return isinstance(payload, dict) and "source" in payload

    def detect_failures(self, loader_handles: list[ActorHandle]) -> list[ActorHandle]:
        return [handle for handle in loader_handles if not self.probe_loader(handle)]

    # -- recovery ----------------------------------------------------------------------------------------

    def recover_loader(self, failed: ActorHandle, step: int, shard: Shard) -> ActorHandle:
        """Promote the shadow for a failed loader (or restart it in place).

        Returns the replacement with whatever buffer state it holds; the
        caller (:meth:`FleetRecovery.recover_member`) resyncs it from the
        newest checkpoint of its ``shard`` plus a replay of the Planner's
        plan suffix.  The replay gap past that checkpoint is charged to the
        modelled recovery latency here.
        """
        shadow = self._shadows.get(failed.name)
        checkpoint = self.shard_checkpoint(shard, step)
        replay_steps = step - checkpoint["step"] if checkpoint else step
        replay_latency = max(0, replay_steps) * REPLAY_LATENCY_PER_STEP_S

        if shadow is not None and shadow.state is ActorState.RUNNING:
            promoted = shadow
            latency = SHADOW_PROMOTION_LATENCY_S + replay_latency
            self._append_event(
                RecoveryEvent(
                    step=step,
                    component=failed.name,
                    kind="shadow_promotion",
                    detail=f"promoted {promoted.name}",
                    recovery_latency_s=latency,
                )
            )
            del self._shadows[failed.name]
            self.breaker.reset(failed.name)
            return promoted

        # No shadow: restart in place.
        restarted = self.system.restart_actor(failed.name)
        latency = COORDINATOR_RESTART_LATENCY_S + replay_latency
        self._append_event(
            RecoveryEvent(
                step=step,
                component=failed.name,
                kind="restart",
                detail="no shadow available",
                recovery_latency_s=latency,
            )
        )
        self.breaker.reset(failed.name)
        return restarted

    def promote_standby(self, failed: ActorHandle, standby: ActorHandle, step: int) -> ActorHandle:
        """Promote a fleet mirror into a failed canonical's slot.

        A mirror is an exact live replica of its group's buffer state (the
        group-sync pass applies every member's demands to every member), so
        promotion needs no state restore at all — the hot-standby path the
        shadow registry provides for deploy-time loaders, extended to
        elastically spawned fleet members.  It costs the promotion latency
        alone: the mirror already holds every demand the failed member had.
        """
        latency = SHADOW_PROMOTION_LATENCY_S
        self._append_event(
            RecoveryEvent(
                step=step,
                component=failed.name,
                kind="mirror_promotion",
                detail=f"promoted {standby.name}",
                recovery_latency_s=latency,
            )
        )
        self.breaker.reset(failed.name)
        return standby

    def recover_coordinator(self, handle: ActorHandle, step: int) -> ActorHandle:
        """Restart a Planner / Data Constructor from its GCS-backed state."""
        instance = handle.instance()
        state = instance.state_dict()
        restarted = self.system.restart_actor(handle.name, state=state)
        self._append_event(
            RecoveryEvent(
                step=step,
                component=handle.name,
                kind="coordinator_restart",
                recovery_latency_s=COORDINATOR_RESTART_LATENCY_S,
            )
        )
        self.breaker.reset(handle.name)
        return restarted

    # -- reporting -----------------------------------------------------------------------------------------

    def events(self) -> list[RecoveryEvent]:
        """The retained tail of the recovery log (newest :data:`EVENTS_LIMIT`)."""
        return list(self._events)

    def total_recovery_latency(self) -> float:
        """Exact lifetime recovery latency (running total, eviction-proof)."""
        return self._latency_total

    def recovery_summary(self) -> dict:
        """Aggregate recovery statistics over the *whole* run.

        Counts and latency totals are maintained online as events are
        appended, so they stay exact even after the bounded ring evicts old
        :class:`RecoveryEvent` records during long chaos soaks.
        """
        return {
            "total_events": self._events_total,
            "total_latency_s": self._latency_total,
            "retained_events": len(self._events),
            "by_kind": {
                kind: {
                    "count": self._event_counts[kind],
                    "latency_s": self._event_latency.get(kind, 0.0),
                }
                for kind in sorted(self._event_counts)
            },
        }
