"""Real thread-parallel execution engine behind the ActorSystem API.

``ActorSystem(backend="wallclock")`` builds this engine instead of the
discrete-event :class:`repro.actors.virtual.VirtualEngine`: every actor gets
a **mailbox** drained by a bounded pool of real lane threads
(``concurrency=n`` ⇒ n lanes), and the same
``submit_call``/``tick``/``drain``/``cancel_pending``/``retire_actor`` API is
served from real completions instead of simulated ones.  `StepPipeline`,
`LoaderFleet` and `FaultToleranceManager` run unmodified on top.

:class:`WallclockEngine` is the twin of ``VirtualEngine`` literally: the two
serve one method set (``tests/test_actors_engine_seam.py`` holds them to it)
and what they share lives once on :class:`~repro.actors.runtime.ActorSystem`.

Design invariants (the cross-backend byte-identity guarantee):

- **Bodies are serialized per actor, in submission order.**  Each mailbox has
  a *turnstile*: exactly one call body executes at a time and strictly in
  FIFO ``seq`` order, so actor state evolves identically to the virtual
  engine.  Only the *modelled latency* of a call (the latency-provider
  duration, realized as a scaled ``time.sleep``) overlaps across lanes —
  mirroring the virtual engine, where lanes overlap busy windows but bodies
  run one at a time.
- **Time is presented in virtual units.**  :class:`WallClock` reports
  ``(monotonic() - t0) / time_scale`` so every ``earliest_start_s`` /
  ``available_at_s`` / timeline instant stays in the same unit system as the
  virtual backend; a modelled duration of ``D`` virtual seconds is realized
  as ``D * time_scale`` real seconds.  Small ``time_scale`` values compress
  simulated hours into benchmark-friendly wall time.
- **``tick`` blocks on real completions.**  Drivers written for the virtual
  engine loop ``while not fut.done(): if system.tick() == 0: break``.  Here
  ``tick`` is ack-based: it returns immediately while unacknowledged
  completions exist, blocks until at least one new completion when work is
  in flight, and returns 0 only when the engine is idle — so those loops
  terminate without busy-waiting and never break early while work remains.
- **Quiescence is explicit.**  The virtual engine executes nothing between
  ticks, so recovery code could mutate actor state freely.  Here in-flight
  bodies finish on their own threads; ``cancel_pending`` therefore also
  *waits* for the affected actors' in-flight calls to drain, and
  :meth:`WallclockEngine.quiesce` offers the same barrier standalone.

A completed submitted call is booked by the loop both engines share
(:meth:`~repro.actors.runtime.ActorSystem.book_chunks`): each chunk (a loader
ticket has several, any other call one) is priced at its start, slept out on
the call's lane thread and recorded, as a timeline event and as a
per-``(role, method)`` wall-latency sample on the engine's
:class:`~repro.core.cost_model.LatencyRecorder`, feeding the calibration loop
(``CalibratedLatencyProvider``) that replays measured latencies per chunk as
virtual durations.
"""

from __future__ import annotations

import threading
import time
from bisect import insort
from collections import deque

from repro.actors.runtime import chunk_count
from repro.actors.virtual import purge_cancelled_heads
from repro.errors import ActorError

#: Real-seconds backstop for blocking waits: a tick/drain/quiesce that sees no
#: completion for this long raises ``TimeoutError`` instead of hanging forever
#: on a wedged lane.
TICK_TIMEOUT_S = 60.0


class WallClock:
    """Real monotonic time, reported in virtual-second units.

    ``time_scale`` is the real-seconds-per-virtual-second factor: durations
    modelled in virtual seconds are slept for ``duration * time_scale`` real
    seconds, and ``now_s`` divides elapsed real time back down, so the two
    backends share one unit system.  ``advance``/``advance_to`` are no-ops —
    real time flows by itself.
    """

    def __init__(self, time_scale: float = 1.0) -> None:
        if time_scale <= 0:
            raise ActorError("wallclock time_scale must be > 0")
        self.time_scale = float(time_scale)
        self._t0 = time.monotonic()

    @property
    def now_s(self) -> float:
        return (time.monotonic() - self._t0) / self.time_scale

    def advance(self, seconds: float) -> None:
        """No-op: real time cannot be pushed forward."""

    def advance_to(self, instant_s: float) -> None:
        """No-op: real time cannot be pushed forward."""

    def sleep_virtual(self, duration_s: float) -> None:
        """Sleep for ``duration_s`` virtual seconds of real time."""
        if duration_s > 0:
            time.sleep(duration_s * self.time_scale)

    def sleep_until(self, instant_s: float) -> None:
        """Sleep until the clock reads ``instant_s`` (no-op if already past)."""
        delay = (instant_s - self.now_s) * self.time_scale
        if delay > 0:
            time.sleep(delay)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WallClock({self.now_s:.6f}s, x{self.time_scale})"


class _Mailbox:
    """Per-actor call queue plus the lane pool that drains it."""

    __slots__ = (
        "name",
        "cond",
        "queue",
        "executing",
        "executing_thread",
        "open",
        "target_lanes",
        "spawned",
        "threads",
        "ready_floor_s",
        "inflight",
        "lane_ends_s",
    )

    def __init__(self, name: str, concurrency: int, ready_floor_s: float) -> None:
        self.name = name
        self.cond = threading.Condition()
        self.queue: deque = deque()
        #: Turnstile: True while a call body (or a direct call) runs.
        self.executing = False
        self.executing_thread: int | None = None
        self.open = True
        self.target_lanes = max(1, concurrency)
        #: Lanes are spawned lazily on the first submit; actors that only
        #: ever serve direct calls never pay for threads.
        self.spawned = 0
        self.threads: list[threading.Thread] = []
        #: The actor's spawn instant: no call starts before it.
        self.ready_floor_s = ready_floor_s
        #: Submitted-but-uncompleted calls (queued + claimed by a lane).
        self.inflight = 0
        #: Expected completion instants of in-flight modelled sleeps — the
        #: lane-occupancy context handed to capacity-aware latency providers.
        self.lane_ends_s: list[float] = []


class WallclockEngine:
    """Thread-parallel twin of the virtual-clock event engine."""

    def __init__(self, system) -> None:
        from repro.core.cost_model import LatencyRecorder  # local: optional layer

        self.system = system
        self._mailboxes: dict[str, _Mailbox] = {}
        #: Engine-wide completion signalling: ``_completed`` counts finished
        #: (completed/failed) submitted calls, ``_acked`` how many a ``tick``
        #: has acknowledged; ``_inflight_total`` counts submitted calls not
        #: yet finished or cancelled.
        self._cond = threading.Condition()
        self._completed = 0
        self._acked = 0
        self._inflight_total = 0
        #: Per-actor latest completion instant (virtual units) — the
        #: wallclock answer to ``actor_free_at_s``.
        self._free_at: dict[str, float] = {}
        #: Measured per-(role, method) wall latencies of submitted calls,
        #: in virtual units — the calibration loop's input.
        self.calibration = LatencyRecorder()

    # -- clock ----------------------------------------------------------------------

    @property
    def clock(self) -> WallClock:
        return self.system.clock

    # -- lifecycle ----------------------------------------------------------------------

    def register_actor(self, name: str, concurrency: int, ready_at_s: float) -> None:
        box = _Mailbox(name, concurrency, ready_at_s)
        with self._cond:
            self._mailboxes[name] = box
        self._free_at[name] = max(self._free_at.get(name, 0.0), box.ready_floor_s)

    def stop_actor(self, name: str) -> None:
        """Close the mailbox: fail queued calls, let lane threads exit.

        A call already claimed by a lane finishes normally (its body may be
        mid-mutation; aborting it would corrupt actor state) — matching the
        virtual engine, where executed events are never revoked.
        """
        with self._cond:
            box = self._mailboxes.pop(name, None)
        if box is None:
            return
        failed = []
        with box.cond:
            box.open = False
            while box.queue:
                call = box.queue.popleft()
                box.inflight -= 1
                if not call.future.cancelled():
                    failed.append(call.future)
            box.cond.notify_all()
        for future in failed:
            future._fail(ActorError(f"actor {name!r} was stopped"))
        if failed:
            with self._cond:
                self._inflight_total -= len(failed)
                self._cond.notify_all()

    def is_idle(self, name: str) -> bool:
        box = self._mailboxes.get(name)
        if box is None:
            return True
        with box.cond:
            return not box.queue and box.inflight == 0

    # -- submission ----------------------------------------------------------------------

    def submit(self, call) -> None:
        # Waiters block on a real Event; create it on the driver thread so
        # lane-side completion only has to set it.
        call.future._completion_event()
        box = self._box(call.name)
        with box.cond:
            if not box.open:
                raise ActorError(f"actor {call.name!r} is stopped and accepts no calls")
            box.queue.append(call)
            box.inflight += 1
            self._spawn_lanes_locked(box)
            box.cond.notify_all()
        with self._cond:
            self._inflight_total += 1

    def _spawn_lanes_locked(self, box: _Mailbox) -> None:
        while box.spawned < box.target_lanes:
            index = box.spawned
            box.spawned += 1
            thread = threading.Thread(
                target=self._lane_loop,
                args=(box,),
                name=f"wallclock-{box.name}-{index}",
                daemon=True,
            )
            box.threads.append(thread)
            thread.start()

    # -- lane execution ------------------------------------------------------------------

    def _lane_loop(self, box: _Mailbox) -> None:
        while True:
            with box.cond:
                while True:
                    if not box.open:
                        return
                    purge_cancelled_heads(box.queue)
                    if box.queue and not box.executing:
                        call = box.queue.popleft()
                        box.executing = True
                        box.executing_thread = threading.get_ident()
                        break
                    box.cond.wait(0.2)
            self._execute(box, call)

    def _execute(self, box: _Mailbox, call) -> None:
        system = self.system
        if not call.future._mark_running():
            # Cancelled between pop and claim; the cancel hook did the
            # accounting and nobody waits on this future.
            self._release_turnstile(box)
            return
        # Causal floor: the caller-declared dependency, no earlier than the
        # actor's spawn — realized as a real (scaled) wait on this lane.
        self.clock.sleep_until(max(call.ready_at_s, box.ready_floor_s))
        start_s = self.clock.now_s
        try:
            result = system.invoke(
                call.name, call.method, call.args, call.kwargs, advance_rpc=False
            )
        except Exception as exc:  # noqa: BLE001 - routed to the future
            self._release_turnstile(box)
            call.future._fail(exc)
            self._finish(box, call, self.clock.now_s, failed=True)
            return

        def occupy(chunk_start_s: float, duration_s: float) -> tuple[float, float]:
            # The first chunk releases the turnstile before sleeping out its
            # modelled latency: the next call's body may start while this
            # one's latency elapses — the virtual engine's overlapping busy
            # windows.  The first chunk was priced before, under it.
            self._release_turnstile(box)
            lane_end = self.clock.now_s + duration_s + system.rpc_latency_s
            with box.cond:
                insort(box.lane_ends_s, lane_end)
            self.clock.sleep_virtual(duration_s + system.rpc_latency_s)
            end_s = self.clock.now_s
            with box.cond:
                box.lane_ends_s.remove(lane_end)
            if system.has_actor(call.name):
                self.calibration.record(
                    system.actor_role(call.name), call.method, end_s - chunk_start_s
                )
            return end_s, end_s

        # A one-call copy of the sorted lane ends: no lane thread sees a
        # half-done insort or remove.
        end_s = system.book_chunks(call, result, start_s, box.lane_ends_s.copy, occupy)
        call.future._complete(result, available_at_s=end_s)
        self._finish(box, call, end_s, failed=False)

    def _release_turnstile(self, box: _Mailbox) -> None:
        """Let the next call body run, if this lane thread holds the turnstile."""
        with box.cond:
            if box.executing_thread == threading.get_ident():
                box.executing = False
                box.executing_thread = None
                box.cond.notify_all()

    def _finish(self, box: _Mailbox, call, end_s: float, failed: bool) -> None:
        with box.cond:
            if not failed:
                # Under the box lock: concurrent lane completions of the same
                # actor must not lose the larger instant to a read/write race.
                self._free_at[call.name] = max(self._free_at.get(call.name, 0.0), end_s)
            box.inflight -= 1
            box.cond.notify_all()
        with self._cond:
            self._completed += 1
            self._inflight_total -= 1
            self._cond.notify_all()

    # -- direct (synchronous) calls ------------------------------------------------------

    def direct_call(self, name: str, method: str, args: tuple, kwargs: dict):
        """Synchronous call through the actor's turnstile.

        The body serializes with submitted-call bodies (actor state is never
        mutated concurrently); afterwards the provider-modelled latency is
        slept on the *caller's* thread, so the depth-0 (inline) data path
        pays realistic wall latency — the fig25 baseline.  Re-entrant direct
        calls from a body to its own actor skip the turnstile (plain nested
        call, as in the virtual engine).
        """
        box = self._mailboxes.get(name)
        owned = False
        me = threading.get_ident()
        if box is not None:
            with box.cond:
                if box.executing_thread != me:
                    deadline = time.monotonic() + TICK_TIMEOUT_S
                    while box.executing:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            raise ActorError(
                                f"direct call to {name}.{method} could not acquire the "
                                f"actor turnstile within {TICK_TIMEOUT_S}s"
                            )
                        box.cond.wait(min(remaining, 0.2))
                    box.executing = True
                    box.executing_thread = me
                    owned = True
        start_s = self.clock.now_s
        try:
            result = self.system.invoke(name, method, args, kwargs, advance_rpc=True)
        finally:
            if owned:
                self._release_turnstile(box)
        duration = sum(
            self.system.modelled_duration(name, method, result, start_s, inline=True, chunk=chunk)
            for chunk in range(chunk_count(result))
        )
        if duration > 0:
            self.clock.sleep_virtual(duration)
            self._free_at[name] = max(self._free_at.get(name, 0.0), self.clock.now_s)
        return result

    # -- driver API ----------------------------------------------------------------------

    def tick(self, max_calls: int | None = 1) -> int:
        """Acknowledge completed calls, blocking for at least one if needed.

        Returns the number of newly acknowledged completions; 0 only when the
        engine is idle (nothing queued or in flight).  Raises
        :class:`TimeoutError` if work is in flight but nothing completes
        within the real-time backstop.
        """
        with self._cond:
            deadline = time.monotonic() + TICK_TIMEOUT_S
            while True:
                available = self._completed - self._acked
                if available:
                    taken = available if max_calls is None else min(available, max_calls)
                    self._acked += taken
                    break
                if self._inflight_total == 0:
                    taken = 0
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"wallclock tick saw no completion within "
                        f"{TICK_TIMEOUT_S}s with {self._inflight_total} "
                        "calls in flight"
                    )
                self._cond.wait(min(remaining, 0.2))
        self.system.sweep_retirements()
        return taken

    def drain(self) -> int:
        """Wait until no submitted call remains; returns completions consumed.

        Raises :class:`TimeoutError` when no call completes for
        :data:`TICK_TIMEOUT_S` with work still in flight.
        """
        executed = 0
        backstop = time.monotonic() + TICK_TIMEOUT_S
        with self._cond:
            while True:
                available = self._completed - self._acked
                if available:
                    self._acked += available
                    executed += available
                    backstop = time.monotonic() + TICK_TIMEOUT_S
                    continue
                if self._inflight_total == 0:
                    break
                if time.monotonic() >= backstop:
                    raise TimeoutError(
                        f"drain saw no completion within {TICK_TIMEOUT_S}s "
                        f"with {self._inflight_total} calls in flight"
                    )
                self._cond.wait(0.05)
        self.system.sweep_retirements()
        return executed

    def wait_future(self, future, timeout_s: float) -> None:
        """Block until the future completes or ``timeout_s`` clock units pass."""
        future._completion_event().wait(timeout_s * self.clock.time_scale)

    def quiesce(self, actor_names=None) -> None:
        """Barrier: wait until the named actors (all, if None) are idle.

        Idle means no queued and no claimed call — the invariant recovery
        code relies on before rewinding actor state (the virtual engine gets
        it for free between ticks).
        """
        deadline = time.monotonic() + TICK_TIMEOUT_S
        for box in self._boxes(actor_names):
            with box.cond:
                while box.inflight > 0:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TimeoutError(
                            f"quiesce of actor {box.name!r} timed out with "
                            f"{box.inflight} calls in flight"
                        )
                    box.cond.wait(min(remaining, 0.2))

    def pending_count(self) -> int:
        total = 0
        for box in self._boxes(None):
            with box.cond:
                total += box.inflight
        return total

    def cancel_pending(self, actor_name: str | None = None) -> int:
        """Cancel queued calls, then wait for in-flight ones to drain.

        The added quiescence keeps the virtual engine's contract — "after
        cancel_pending, nothing of this actor's pending work is executing" —
        which recovery paths rely on before restarting/restoring actors.
        """
        boxes = self._boxes(None if actor_name is None else [actor_name])
        cancelled = 0
        for box in boxes:
            with box.cond:
                snapshot = list(box.queue)
            for call in snapshot:
                if call.future.cancel():
                    cancelled += 1
        self.quiesce([box.name for box in boxes])
        self.system.sweep_retirements()
        return cancelled

    def on_future_cancelled(self, name: str, future) -> None:
        """Account a successful cancellation (always of an unclaimed call)."""
        box = self._mailboxes.get(name)
        if box is not None:
            with box.cond:
                for call in box.queue:
                    if call.future is future:
                        box.queue.remove(call)
                        break
                box.inflight -= 1
                box.cond.notify_all()
        with self._cond:
            self._inflight_total -= 1
            self._cond.notify_all()

    def free_at_s(self, name: str) -> float:
        return self._free_at.get(name, 0.0)

    # -- internals ----------------------------------------------------------------------

    def _boxes(self, names=None) -> list[_Mailbox]:
        """Snapshot of the named actors' mailboxes (all, if None), skipping unknown names."""
        with self._cond:
            if names is None:
                return list(self._mailboxes.values())
            return [self._mailboxes[n] for n in names if n in self._mailboxes]

    def _box(self, name: str) -> _Mailbox:
        try:
            return self._mailboxes[name]
        except KeyError:
            raise ActorError(f"unknown actor {name!r}") from None


__all__ = ["WallClock", "WallclockEngine"]
