"""The step driver of the pull workflow, at every prefetch depth.

:class:`StepPipeline` runs each step through one state machine of four
states (pending → planning → preparing → constructing, then ready to
consume).  With ``prefetch_depth >= 1`` it keeps that many future steps in
flight: while the trainer consumes step ``N`` it issues plan generation,
non-blocking loader preparation and constructor staging for steps
``N+1..N+prefetch_depth`` through the actor system's cooperative event loop
(deferred calls + futures).

A loader's share of a step is one ticket, one :meth:`SourceLoader.poll`
call and nothing else: it carries the demanded ids, and the loader stages
them, refills and hands the samples off, returning the key of a
``prepared/`` GCS reference.  The engine books the ticket as a chain of
``POLL_CHUNK``-row chunks on the loader's lanes; the last chunk's end is the
loader's fetch instant.  Once every loader's poll is in (and the per-step
sync point has passed), the references are taken in demand order and the
step moves on to constructing.

``prefetch_depth=0`` is the same machine with one thing changed — how a call
is issued.  Each data-plane call runs inline on the caller
(:meth:`ActorHandle.call_settled` instead of :meth:`ActorHandle.submit_timed`)
and comes back as an already-settled future, so nothing is queued on or
ticked from the engine (a co-tenant's events never run mid-step), a ticket is
one chunk, nothing is issued ahead of the consume, the queue is
empty between steps (``flush`` has nothing to rewind, ``run_step(step=N)`` may
move the consume position) and the trainer's stall is *computed* from the
step's modelled fetch latency rather than measured.

Determinism: data-plane operations are issued in strict step order — the plan
for step ``N+1`` is generated only after step ``N``'s loader work finished
mutating the read buffers — so the delivered batches are identical at every
depth for the same seed.

Timing (depth >= 1) is a discrete-event co-simulation on the actor system's
shared :class:`~repro.actors.virtual.VirtualClock`: every deferred call is
submitted with its causal dependency (``earliest_start_s`` — a step's loader
work cannot start before its plan was broadcast, a construct not before its
polls completed, a re-issued construct not before the consume that
freed a staging slot) and occupies its actor for a cost-model-derived virtual
duration.  The instant a step's last construct event completes is its
``data_ready_s``; the framework measures the trainer's stall against it, so
the :class:`~repro.metrics.timeline.OverlapLedger` reports *measured* hidden
vs exposed data time — deep pipelines (``prefetch_depth > 1``) faithfully
hide fetch chains longer than one iteration as long as per-stage throughput
keeps up.

Rounds (depth >= 1): one pump round of ``preparing`` or ``constructing``
drains the engine — ``tick(None)`` runs every runnable event — and then scans
the step's loaders (or constructors) once, in demand order, collecting every
finished ticket.  A step costs one poll per loader, so its ``preparing``
state is one round unless a poll failed.  Round size cannot move the
modelled clock: while a step is ``preparing`` only its own polls are queued,
each on its own loader actor with the plan broadcast as its
``earliest_start_s``, and the engine books a ticket's chunks back to back
from there, so every chunk's start and end instants depend on its loader's
lanes alone, not on how many events ran beside it.  On a shared
(multi-tenant) system a round may also run a co-tenant's runnable events,
whose instants are fixed the same way.  The step's loader transform time, a
float sum, is added up in demand order when it leaves ``preparing``, so its
last bits do not depend on round size either.

Backpressure: Data Constructors bound their staging queues; a full queue
raises :class:`BackpressureError` and the pipeline pauses prefetching until
the trainer consumes (and releases) a step.  A full queue on the step the
trainer waits on means a step-boundary release was skipped; the pipeline
re-runs it there.

Fault tolerance: a loader failure mid-step is detected on its future,
recovered through :class:`FaultToleranceManager` (shadow promotion or restart)
and the failed step's demands are re-issued after deterministically replaying
the Planner's plan history against the replacement's buffer, so no sample is
dropped or duplicated and step ordering is preserved.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.actors.actor import ActorFuture, ActorHandle, ActorState
from repro.core.assembly import PreparedColumns
from repro.core.fault_tolerance import DEGRADED_WAIT_ATTEMPTS, WAIT_RETRY
from repro.core.planner import PlanTimings
from repro.core.plans import LoadingPlan
from repro.data.mixture import MixtureSchedule
from repro.errors import (
    ActorDead,
    ActorTimeout,
    BackpressureError,
    ConfigurationError,
    PlanError,
    ReproError,
    StorageError,
)


#: Rows per chunk of a deferred (depth >= 1) ticket, which the engine books
#: as a chain of chunks on the loader's lanes; an inline (depth 0) ticket is
#: one chunk.
POLL_CHUNK = 8


@dataclass(slots=True)
class _InflightStep:
    """One step moving through the state machine."""

    step: int
    #: Trainer consumption position when this step was issued (sets the
    #: ``prefetched`` flag at consume time).
    issued_at: int
    #: Virtual instant the step was issued — the trainer-begin of the consume
    #: that put it in the queue; its plan event cannot start earlier.
    issue_time_s: float = 0.0
    state: str = "pending"
    blocked: bool = False
    #: Earliest virtual instant a backpressure-retried construct may start
    #: (the consume instant that freed a staging slot).
    retry_after_s: float = 0.0
    #: Policy counter: heal/degrade/wait rounds spent absorbing faults while
    #: driving this step (bounds the strict-mode wait loop).
    recovery_attempts: int = 0

    plan_future: ActorFuture | None = None
    #: The user-installed mixture the plan was requested under (None: the
    #: auto-sized default).
    mixture: MixtureSchedule | None = None
    plan: LoadingPlan | None = None
    plan_timings: PlanTimings = field(default_factory=PlanTimings)
    #: Virtual instant the plan finished broadcasting.
    plan_ready_s: float = 0.0

    demands: dict[ActorHandle, list[int]] = field(default_factory=dict)
    #: Each loader's poll.  A completed one stays here, its ``prepared/`` key
    #: not yet taken, until the step leaves ``preparing``.
    poll_futures: dict[ActorHandle, ActorFuture] = field(default_factory=dict, init=False)
    loader_wall_clock_s: float = 0.0
    loader_transform_s: float = 0.0

    prepared: PreparedColumns | None = None
    #: Virtual instant the last poll handed its samples over.
    fetch_ready_s: float = 0.0

    unconstructed: list[ActorHandle] = field(default_factory=list)
    construct_futures: dict[str, ActorFuture] = field(default_factory=dict, init=False)
    collate_seconds: float = 0.0
    #: Virtual instant the step's last construct event completed — the
    #: measured readiness instant the framework stalls the trainer against.
    data_ready_s: float = 0.0

    def all_futures(self) -> list[ActorFuture]:
        futures: list[ActorFuture] = []
        if self.plan_future is not None:
            futures.append(self.plan_future)
        futures.extend(self.poll_futures.values())
        futures.extend(self.construct_futures.values())
        return futures


class StepPipeline:
    """The one driver of the pull workflow: inline at depth 0, prefetching above."""

    def __init__(self, framework, prefetch_depth: int) -> None:
        if prefetch_depth < 0:
            raise ConfigurationError("StepPipeline requires prefetch_depth >= 0")
        self.framework = framework
        self.prefetch_depth = prefetch_depth
        #: How a data-plane call is issued: deferred, or (depth 0) inline.
        self._issue = ActorHandle.submit_timed if prefetch_depth else ActorHandle.call_settled
        self._queue: deque[_InflightStep] = deque()
        #: Next step number to enqueue (everything below it is in flight or
        #: consumed); ``restore`` sets it to the resumed consume position.
        self.next_issue_step = framework.step
        #: ``(first step, mixture)`` swaps a restored run has yet to install:
        #: the saving run's unflushed ``set_mixture`` calls whose old-mixture
        #: plans were still in flight at the saved position.
        self.mixture_swaps: list[tuple[int, MixtureSchedule]] = []
        self._cancelled = False

    # -- public API --------------------------------------------------------------------

    def run_step(self, step: int | None = None, simulate: bool = False):
        """Drive the next step to readiness, consume it, then prefetch ahead."""
        fw = self.framework
        if self._cancelled:
            raise PlanError("the step pipeline has been shut down; deploy a new instance")
        if step is not None and step != fw.step:
            if self.prefetch_depth or self._queue:
                raise ConfigurationError(
                    f"the prefetching pipeline consumes steps in order; expected step "
                    f"{fw.step}, got {step} (use prefetch_depth=0 for random access)"
                )
            # Nothing is in flight, so the trainer may move the consume
            # position (rollback, skip-ahead).
            fw.step = self.next_issue_step = step
        expected = fw.step
        self._fill()
        # The wait budget bounds one call: a step that raised past it resumes
        # where it stopped when the caller retries.
        self._queue[0].recovery_attempts = 0
        stalls = 0
        # Re-read the head every round: a degraded-mode flush mid-pump
        # rebuilds the queue, so the object identity of "the next step" can
        # change while we drive it to readiness.
        while self._queue[0].state != "ready":
            if not self._pump():
                stalls += 1
                if stalls > 2:
                    raise PlanError(
                        f"step pipeline stalled while completing step "
                        f"{self._queue[0].step}; constructor staging_capacity "
                        "must be >= 2"
                    )
            else:
                stalls = 0
            self._fill()
        head = self._queue.popleft()

        # The framework measures the trainer's stall against the step's
        # recorded data-ready instant and books the compute window on the
        # shared virtual clock — overlap is measured, not credited.  Inline
        # calls have no completion instant: at depth 0 the stall is computed.
        result = fw.finalize_step(
            step=head.step,
            plan=head.plan,
            plan_timings=head.plan_timings,
            loader_wall_clock_s=head.loader_wall_clock_s,
            loader_transform_s=head.loader_transform_s,
            collate_seconds=head.collate_seconds,
            data_ready_s=head.data_ready_s if self.prefetch_depth else None,
            prefetched=head.issued_at < expected,
            simulate=simulate,
        )

        # The release in finalize_step may have unblocked prefetch that hit
        # constructor backpressure; retried constructs may not start before
        # the consume instant that freed the staging slot.
        for item in self._queue:
            if item.blocked:
                item.blocked = False
                item.retry_after_s = max(item.retry_after_s, fw.last_release_s)

        # Prefetch: drive the queued steps' data-plane work now; their events
        # land during this step's compute window on the virtual clock.
        if self.prefetch_depth:
            self._fill()
            while self._pump():
                pass
        # Wallclock backend: the trainer's window for this step was deferred
        # so the prefetch pump above could overlap real compute; settle it
        # now that the next steps' data-plane work is in flight.
        fw.collect_iteration()
        return result

    def plan_frontier(self) -> int:
        """First step whose plan is not yet applied to the loader buffers.

        The pump is strict-order, so that is the earliest queued step still
        short of ``constructing`` — between ``run_step`` calls normally none,
        i.e. the next step to issue.
        """
        for item in self._queue:
            if item.state in ("pending", "planning", "preparing"):
                return item.step
        return self.next_issue_step

    def mixtures(self) -> list[tuple[int, MixtureSchedule | None]]:
        """``(first step, mixture)`` runs re-planning from the consume position
        must follow.

        What each planned in-flight step was sampled under, then what the
        Planner holds for the steps still to plan; more than one run only
        while an unflushed ``set_mixture`` is working through the window.
        """
        planned = [
            (item.step, item.mixture) for item in self._queue if item.plan_future is not None
        ]
        upcoming = (
            planned[-1][0] + 1 if planned else self.framework.step,
            self.framework.planner_handle.instance().installed_mixture,
        )
        runs: list[tuple[int, MixtureSchedule | None]] = []
        for first_step, mixture in [*planned, upcoming, *self.mixture_swaps]:
            if not runs or runs[-1][1] is not mixture:
                runs.append((first_step, mixture))
        return runs

    def _install_mixtures(self, due_by: float = float("inf")) -> None:
        """Install the restored mixture swaps whose first step is at most ``due_by``."""
        while self.mixture_swaps and self.mixture_swaps[0][0] <= due_by:
            self.framework.set_mixture(self.mixture_swaps.pop(0)[1])

    def inflight(self) -> list[tuple[int, str]]:
        """(step, state) for every queued step — for tests and monitoring."""
        return [(item.step, item.state) for item in self._queue]

    def cancel(self) -> None:
        """Abandon the in-flight window for good (idempotent; used by shutdown).

        Cancels the queued work, deletes the hand-off references it published
        and cuts plan history, degradation accounting and loader checkpoints
        back to the delivered prefix — exactly the cut :meth:`flush` makes, so
        a stopped run leaves the store ``restore`` expects.  Loaders and
        constructors are not rewound: the caller stops every actor next, so
        rewinding them would be work thrown away.  No step runs after a
        cancel.
        """
        if self._cancelled:
            return
        self._cancelled = True
        self._abandon()

    def flush(self) -> None:
        """Abort every in-flight step, restoring a consistent delivered state.

        Flushed steps may have partially mutated loader buffers (polled
        samples are consumed as they are prepared) and their plans sit in the
        Planner's history even though they were never delivered.  To keep the
        data plane deterministic and replayable, the flush (1) abandons the
        window as :meth:`cancel` does — cancels the queued work and cuts plan
        history, degradation accounting and loader checkpoints back to the
        delivered prefix — (2) rewinds every fleet member to that prefix:
        restores its newest differential checkpoint and replays
        the plan suffix past it (pristine reset + full replay for a member
        without one), and (3) releases the staging the flushed steps occupied
        on the constructors.

        Each restore/reset rebuilds its loader's buffer, so the next plan
        charges that loader a full O(buffer) resync gather
        (:meth:`~repro.core.planner.Planner.gather_buffer_columns`), after
        which gathers are charged per change again.
        """
        # The run being continued had every swap installed on its Planner, so
        # there a flush re-plans under the newest one.
        self._install_mixtures()
        if not self._abandon():
            # Nothing in flight (always so between steps at depth 0): loaders,
            # plan history and staging already hold the delivered prefix.
            return
        fw = self.framework
        # Rewind the *whole* fleet (canonicals and elastic mirrors alike) to
        # the delivered prefix — bounded in run length; every shard-group
        # member becomes a byte-exact replica of the state a lone loader
        # would hold after the delivered prefix.
        fw.recovery.rewind_members(fw.step)
        # Steps already constructed for the flushed future occupy bounded
        # staging slots on every constructor (including ones a reshard is
        # about to retire); release them so re-planned steps can stage again.
        for constructor_handle in fw.constructor_handles:
            try:
                constructor_handle.call("release_steps_below", self.next_issue_step)
            except ReproError:  # a stopped or failed constructor holds nothing
                pass
        self.next_issue_step = fw.step

    def _abandon(self) -> bool:
        """Drop the in-flight window; returns False when nothing was in flight.

        Cancels the queued work, deletes the hand-off references it published
        and cuts the durable state — plan history, degradation accounting,
        loader checkpoints — back to the delivered prefix.  Actor state is
        the caller's: :meth:`flush` rewinds it, :meth:`cancel` lets it go.
        """
        if not self._queue:
            return False
        fw = self.framework
        for item in self._queue:
            for future in item.all_futures():
                future.cancel()
        # Cancellation cannot claw back calls already executing on wallclock
        # lane threads; wait for the affected actors to go quiet before the
        # state below is cut (no-op on the virtual backend, which executes
        # nothing between ticks).
        fw.system.quiesce(
            [handle.name for handle in fw.fleet.all_handles()]
            + [handle.name for handle in fw.constructor_handles]
            + [fw.planner_handle.name]
        )
        for item in self._queue:
            # A poll published a hand-off reference; one never taken would
            # leak its frozen columns in the GCS.  Read the futures, not what
            # the pump observed: a wallclock lane may have completed a poll
            # during the quiesce.
            for future in item.poll_futures.values():
                if future.done() and not future.cancelled() and future.exception() is None:
                    key = future.result().get("key")
                    if key is not None:
                        fw.system.gcs.delete(key)
        planner = fw.planner_handle.instance()
        planner.truncate_history(fw.step)
        # Degraded-mode catch-up accounting observed the abandoned plans, which
        # were never delivered, so rewind their deficit deltas and memoized
        # catch-up weights along with the plan history.
        if fw.degradation is not None:
            fw.degradation.invalidate_from(fw.step)
        # Checkpoints taken at the sync points of flushed (never-delivered)
        # steps would replay demands that no longer exist post-flush.
        fw.fault_manager.discard_checkpoints_after(fw.step - 1)
        self._queue.clear()
        return True

    # -- state machine -----------------------------------------------------------------

    def _fill(self) -> None:
        if self._cancelled:
            return
        while len(self._queue) < self.prefetch_depth + 1:
            self._queue.append(
                _InflightStep(
                    step=self.next_issue_step,
                    issued_at=self.framework.step,
                    issue_time_s=self.framework.last_release_s,
                )
            )
            self.next_issue_step += 1

    def _pump(self) -> bool:
        """Advance the earliest incomplete step one transition (strict order)."""
        for item in self._queue:
            if item.state != "ready":
                if item.blocked:
                    return False
                return self._advance(item)
        return False

    def _advance(self, item: _InflightStep) -> bool:
        if item.state == "pending":
            return self._advance_pending(item)
        if item.state == "planning":
            return self._advance_planning(item)
        if item.state == "preparing":
            return self._advance_preparing(item)
        if item.state == "constructing":
            return self._advance_constructing(item)
        raise PlanError(f"unknown pipeline state {item.state!r}")

    def _advance_pending(self, item: _InflightStep) -> bool:
        fw = self.framework
        if fw.degradation is not None:
            # Re-admit healed dark sources before this step plans, so the
            # plan samples from the restored mixture.
            fw.degradation.maybe_restore(item.step)
        self._install_mixtures(due_by=item.step)
        self._submit_plan(item)
        item.state = "planning"
        return True

    def _submit_plan(self, item: _InflightStep) -> None:
        """(Re-)issue the step's plan on the sized planner (a restarted
        planner comes back with its deploy-time, unbounded strategy)."""
        fw = self.framework
        fw.size_planner()
        item.mixture = fw.planner_handle.instance().installed_mixture
        item.plan_future = self._issue(
            fw.planner_handle, "generate_plan", item.step,
            step_tag=item.step, earliest_start_s=item.issue_time_s,
        )

    def _advance_planning(self, item: _InflightStep) -> bool:
        fw = self.framework
        if self.prefetch_depth:
            fw.system.tick()
        if not item.plan_future.done():
            return True
        exc = item.plan_future.exception()
        if isinstance(exc, (ActorDead, ActorTimeout)):
            # The planner's buffer gather hit a dead or dark loader (or the
            # planner itself is inside a fault window).  Heal what can be
            # healed; an unrecoverable source is degraded out of the mixture
            # (renormalize) — which invalidates every queued plan, so flush
            # and re-plan the whole in-flight window — or waited out (strict).
            item.recovery_attempts += 1
            dark_before = set(fw.degradation.dark) if fw.degradation is not None else set()
            if not fw.recovery.absorb_gather_fault(item.step, item.recovery_attempts):
                raise exc
            if fw.degradation is not None and set(fw.degradation.dark) != dark_before:
                self.flush()
                return True
            self._submit_plan(item)
            return True
        if exc is not None:
            raise exc
        item.plan = item.plan_future.result()
        if fw.degradation is not None:
            fw.degradation.observe_plan(item.plan)
        item.plan_ready_s = item.plan_future.available_at_s or 0.0
        # Capture the timings of exactly this plan before later plans overwrite
        # the planner's "latest" slot.
        item.plan_timings = fw.planner_handle.instance().stats.latest_timings()
        # Step boundary: consume the plan's piggybacked scaling directives
        # (spawn/retire through the placement scheduler) before routing this
        # step's demands, so the resized fleet serves the step that carried
        # the directive.
        fw.apply_scaling_plan(item.plan)
        item.demands = fw.fleet.split_demands(item.plan)
        for handle, sample_ids in item.demands.items():
            if sample_ids:
                self._submit_prepare(item, handle)
        item.state = "preparing"
        return True

    def _submit_prepare(self, item: _InflightStep, handle: ActorHandle) -> None:
        """(Re-)issue ``handle``'s ticket for the step's demands: one poll."""
        item.poll_futures[handle] = self._issue(
            handle, "poll", item.step,
            POLL_CHUNK if self.prefetch_depth else len(item.demands[handle]),
            list(item.demands[handle]),
            step_tag=item.step, earliest_start_s=item.plan_ready_s,
        )

    def _advance_preparing(self, item: _InflightStep) -> bool:
        fw = self.framework
        if self.prefetch_depth:
            # Drain, then scan once; the module docstring says why the round
            # size cannot move the modelled clock.
            fw.system.tick(None)
        # Routing (demand) order: re-issued polls take their sequence
        # numbers, and a failure is handled, in the same order in every run.
        # A round handles at most one failed poll; the next round picks up
        # any other.
        pending = False
        for handle, sample_ids in item.demands.items():
            if not sample_ids:
                continue
            poll = item.poll_futures.get(handle)
            if poll is None:
                self._submit_prepare(item, handle)
            if poll is None or not poll.done():
                pending = True
                continue
            exc = poll.exception()
            if isinstance(exc, (ActorDead, ActorTimeout)):
                self._handle_loader_failure(item, handle)
                return True
            if exc is not None:
                raise exc
            # The poll handed the samples off; its future keeps the key (and
            # its transform total) until the step leaves ``preparing``.
            item.loader_wall_clock_s = max(
                item.loader_wall_clock_s, poll.result()["wall_clock_s"]
            )
            item.fetch_ready_s = max(item.fetch_ready_s, poll.available_at_s or 0.0)

        if not pending:
            # Every loader finished mutating its buffer for this step: let
            # shard-group mirrors absorb their peers' demands now (one refill
            # per member), before any later step's plan gathers buffers.
            fw.fleet.sync_after_prepare(item.demands)
            # Differential-interval checkpoint at the per-step sync point —
            # the strict-order pump guarantees every plan <= item.step is
            # fully applied here and nothing beyond has started.
            fw.recovery.checkpoint_members(item.step)
            # Resolve the polls' GCS references in demand order: the very
            # column slices the loaders froze travel to the constructors
            # without a copy.  The transform total is summed in that order
            # too, so its last bits never depend on which round a poll
            # landed in.
            columns = []
            transform_s = 0.0
            for handle in item.demands:
                poll = item.poll_futures.get(handle)
                if poll is not None:
                    status = poll.result()
                    transform_s += status["transform_latency_s"]
                    columns.append(fw.system.gcs.take(status["key"]))
            item.loader_transform_s = transform_s
            item.prepared = PreparedColumns.concat(columns)
            item.poll_futures.clear()
            item.unconstructed = list(fw.constructor_handles)
            item.state = "constructing"
        return True

    def _advance_constructing(self, item: _InflightStep) -> bool:
        fw = self.framework
        backbone_plan = item.plan.module("backbone")
        for constructor_handle in item.unconstructed:
            if constructor_handle.name not in item.construct_futures:
                item.construct_futures[constructor_handle.name] = self._issue(
                    constructor_handle, "construct", item.step, backbone_plan, item.prepared,
                    step_tag=item.step,
                    earliest_start_s=max(item.fetch_ready_s, item.retry_after_s),
                )
        if self.prefetch_depth:
            fw.system.tick(None)
        blocked = False
        for constructor_handle in list(item.unconstructed):
            future = item.construct_futures.get(constructor_handle.name)
            if future is None or not future.done():
                continue
            exc = future.exception()
            if isinstance(exc, BackpressureError):
                # Bounded staging is full: pause this step's prefetch until
                # the trainer releases a step.  The step the trainer waits on
                # cannot wait for that; whatever is staged below it was
                # delivered, so a step-boundary sweep was skipped (a blip).
                # Run that sweep now, waiting the blip out, and re-issue.
                del item.construct_futures[constructor_handle.name]
                if item.step == fw.step and fw.recovery.ride_out(
                    lambda: constructor_handle.call("release_steps_below", fw.step),
                    constructor_handle, item.step,
                    f"constructor-release.{constructor_handle.name}",
                ):
                    continue
                blocked = True
                continue
            if isinstance(exc, (ActorDead, ActorTimeout)):
                # Chaos faults fire before the construct body runs, so the
                # identical call is safe to re-issue: restart a dead
                # constructor from its state dict, or sleep one backoff delay
                # for a fault window (gcs blip) to expire, then resubmit.
                item.recovery_attempts += 1
                if item.recovery_attempts >= DEGRADED_WAIT_ATTEMPTS:
                    raise exc
                if isinstance(exc, ActorDead):
                    fw.fault_manager.recover_coordinator(constructor_handle, item.step)
                else:
                    fw.fault_manager.sleep(
                        WAIT_RETRY.delay_s(
                            item.recovery_attempts,
                            f"pipeline-construct.{constructor_handle.name}",
                        )
                    )
                del item.construct_futures[constructor_handle.name]
                continue
            if exc is not None:
                raise exc
            stats = future.result()
            item.collate_seconds = max(item.collate_seconds, stats["collate_seconds"])
            item.data_ready_s = max(item.data_ready_s, future.available_at_s or 0.0)
            item.unconstructed.remove(constructor_handle)
            del item.construct_futures[constructor_handle.name]
        if not item.unconstructed:
            item.state = "ready"
            return True
        if blocked and not item.construct_futures:
            item.blocked = True
            return False
        return True

    # -- recovery ----------------------------------------------------------------------

    def _handle_loader_failure(self, item: _InflightStep, handle: ActorHandle) -> None:
        """Recover a loader that died mid-ticket and re-issue its work.

        The in-flight step's samples were never delivered, so re-preparing
        them on the replacement neither drops nor duplicates any sample.

        When recovery itself fails (node gone, checkpoint store dark, source
        blacked out) the failure escalates to policy: renormalize mode
        degrades the source and flushes the in-flight window so every queued
        step re-plans over the survivors; strict mode sleeps one backoff
        delay — bounded by the degraded-wait budget — and re-issues the
        chaos-failed calls to retry on the next pump, after the fault
        window may have expired.
        """
        fw = self.framework
        if fw.system.actor_state(handle.name) is ActorState.RUNNING:
            # Alive but dark (source blackout, control-plane blip) or merely
            # slow: restarting a live instance would discard its prefetch
            # cursor and fork the sample stream, so escalate straight to
            # policy — degrade the source or wait the window out.
            self._degrade_or_wait(item, handle)
            return
        try:
            promoted = fw.recover_fleet_member(handle, item.step)
        except (ActorDead, ActorTimeout, StorageError):
            self._degrade_or_wait(item, handle)
            return

        sample_ids = item.demands.pop(handle, [])
        item.poll_futures.pop(handle, None)
        item.demands[promoted] = sample_ids
        if sample_ids:
            self._submit_prepare(item, promoted)

    def _degrade_or_wait(self, item: _InflightStep, handle: ActorHandle) -> None:
        """Policy for a loader that cannot be (or must not be) recovered.

        Renormalize mode degrades the member's source and flushes the
        in-flight window so every queued step re-plans over the survivors;
        strict mode sleeps one backoff delay — bounded by the degraded-wait
        budget — and re-issues the chaos-failed calls so the next pump
        retries after the fault window may have expired.
        """
        fw = self.framework
        source = fw.recovery.member_source(handle)
        if fw.degradation is not None and fw.degradation.can_degrade({source}):
            fw.degradation.degrade({source}, item.step)
            self.flush()
            return
        item.recovery_attempts += 1
        if item.recovery_attempts >= DEGRADED_WAIT_ATTEMPTS:
            raise ActorTimeout(
                f"loader {handle.name} unavailable past the degraded-wait budget"
            )
        fw.fault_manager.sleep(
            WAIT_RETRY.delay_s(item.recovery_attempts, f"pipeline-recover.{handle.name}")
        )
        # Chaos faults fire before the target method body runs, so the failed
        # poll never executed and the identical re-issue is safe: the
        # preparing loop re-submits a missing poll on its next round.
        # Without that, the same completed-with-exception future would keep
        # re-triggering this wait loop even after the fault window expires.
        poll = item.poll_futures.get(handle)
        if poll is not None and poll.done() and poll.exception() is not None:
            del item.poll_futures[handle]
