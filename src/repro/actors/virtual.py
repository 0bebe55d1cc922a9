"""The virtual-clock discrete-event engine behind the ActorSystem API.

``ActorSystem(backend="virtual")`` (the default) executes deferred calls on
this engine: calls submitted via :meth:`ActorSystem.submit_call` are queued
per actor and, when :meth:`ActorSystem.tick` runs, the engine picks the
queued call with the earliest virtual start time (respecting per-actor
serialization via busy windows and caller-declared causal dependencies via
``earliest_start_s``), advances the shared :class:`VirtualClock` to that
instant and executes it.  Each executed call occupies its actor for a
*virtual duration* — explicitly provided, or derived from the call's result
by :meth:`ActorSystem.modelled_duration` — and its completion instant is
published on the future (``ActorFuture.available_at_s``) and on the system
:class:`~repro.metrics.timeline.Timeline`.  Trainer compute and data-plane
work are therefore co-simulated on one clock, which is what makes prefetch
overlap a *measured* quantity rather than a heuristic credit.  A loader
ticket is one call booked as a chain of chunks, each on the earliest-free
lane from the previous chunk's end (:meth:`ActorSystem.book_chunks`).

Dispatch is an **indexed priority queue**: the next call is the queue head
with the smallest ``(max(ready_at_s, actor_free_at_s), seq)`` over every
actor, and one global heap holds an entry per actor queue head under that
key, so popping the next event is O(log A) in the number of actors instead of
a scan over every queue.  Executing an event only changes its own actor's busy
window, so only that actor's head is re-keyed (lazy invalidation: stale heap
entries are discarded or corrected when they surface).  Per-actor lane lists
are kept sorted, so the busy-window lookup is O(1) and a lane booking
O(L).  Ties cannot occur (``seq`` is globally unique), so the order is
exactly that of a scan over the queue heads; the dispatch property test in
``tests/test_actors_dispatch_equivalence.py`` replays random scripts against
such a scan, and ``tests/test_reference_pins.py`` pins fixed scripts' traces.

:class:`VirtualEngine` serves the same method set as its thread-parallel twin
(:class:`repro.actors.wallclock.WallclockEngine`); what the two share lives
once on :class:`~repro.actors.runtime.ActorSystem`.  An actor's lane count is
fixed when it registers, and a retiring actor only drains: its queued calls
dispatch in their normal order and the engine stops it once the queue is dry.
"""

from __future__ import annotations

import heapq
from bisect import insort
from collections import deque
from dataclasses import dataclass

from repro.actors.actor import ActorFuture
from repro.errors import ActorError


class VirtualClock:
    """Monotonic simulated-time clock shared by every co-simulated component.

    The clock is a high-water mark over executed event start times: it never
    runs backwards, and it is advanced by the event engine (and by simulated
    RPC latency on synchronous calls), never by real time.
    """

    def __init__(self) -> None:
        self._now_s = 0.0

    @property
    def now_s(self) -> float:
        return self._now_s

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ActorError("cannot advance the clock backwards")
        self._now_s += seconds

    def advance_to(self, instant_s: float) -> None:
        """Move the clock forward to ``instant_s`` (no-op if already past it)."""
        if instant_s > self._now_s:
            self._now_s = float(instant_s)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VirtualClock({self._now_s:.6f}s)"


@dataclass(slots=True)
class PendingCall:
    future: ActorFuture
    name: str
    method: str
    args: tuple
    kwargs: dict
    #: Virtual instant the call became eligible to run (submit time, or the
    #: caller-declared causal dependency when ``earliest_start_s`` was given).
    ready_at_s: float = 0.0
    #: Explicit virtual duration; ``None`` defers to the latency provider.
    duration_s: float | None = None
    #: Pipeline step the call belongs to (timeline metadata), if any.
    step: int | None = None
    #: Global submission sequence number — the deterministic tie-breaker.
    seq: int = 0


def purge_cancelled_heads(queue: deque[PendingCall]) -> None:
    """Drop cancelled calls from the queue front.

    Every site that reads a queue head (the heap pop, the head indexer,
    ``is_idle``) purges through this one definition, so a cancelled call is
    never a head that keys or wins dispatch.
    """
    while queue and queue[0].future.cancelled():
        queue.popleft()


class VirtualEngine:
    """Discrete-event twin of the thread-parallel wallclock engine."""

    def __init__(self, system) -> None:
        self.system = system
        #: Per-name incarnation counter.  Heap entries are stamped with the
        #: generation current at push time, so entries belonging to a removed
        #: (or removed-and-recreated) actor are recognisably stale and are
        #: discarded the moment they surface — `tick()` can never dispatch to
        #: a dead incarnation, and a reused name starts with clean accounting.
        self._generation: dict[str, int] = {}
        #: Per-actor FIFO queues of deferred calls (the event engine's inputs).
        self._queues: dict[str, deque[PendingCall]] = {}
        #: Per-actor busy windows, kept sorted: one entry per execution lane
        #: holding the virtual instant that lane finishes its latest executed
        #: call (``lanes[0]`` is the actor's earliest-free instant).
        self._lanes_s: dict[str, list[float]] = {}
        #: Dispatch state: a global heap of per-actor queue-head
        #: entries ``(start, seq, actor, generation)`` plus a per-actor
        #: live-entry count used for lazy invalidation (stale entries are
        #: discarded when they surface; the count guarantees every non-empty
        #: queue stays represented by at least one entry).  The generation
        #: stamp keeps the count exact across actor destruction and name
        #: reuse: entries of dead incarnations are not counted at all.
        self._heap: list[tuple[float, int, str, int]] = []
        self._heap_entries: dict[str, int] = {}

    # -- lifecycle ----------------------------------------------------------------------

    def register_actor(self, name: str, concurrency: int, ready_at_s: float) -> None:
        self._generation[name] = self._generation.get(name, 0) + 1
        self._lanes_s[name] = [ready_at_s] * concurrency

    def stop_actor(self, name: str) -> None:
        self._lanes_s.pop(name, None)
        # Fail (don't leak) any still-queued deferred calls: a removed
        # actor's queue would otherwise be scanned forever and its lane
        # lookup would backdate the call's start to 0.
        for call in self._queues.pop(name, ()):
            if not call.future.cancelled():
                call.future._fail(ActorError(f"actor {name!r} was stopped"))
        # Eagerly invalidate the actor's indexed-heap entries: dropping
        # the live-entry count turns every entry of this incarnation
        # stale (its generation no longer matches), so they are discarded
        # untouched when they surface and a later same-name actor starts
        # with exact accounting — `tick()` can never dispatch to the dead
        # incarnation, and surviving actors' dispatch order is unchanged.
        self._heap_entries.pop(name, None)

    def is_idle(self, name: str) -> bool:
        queue = self._queues.get(name, ())
        purge_cancelled_heads(queue)
        return not queue

    def free_at_s(self, name: str) -> float:
        """The actor's earliest-free lane: lane lists are kept sorted, so
        this is O(1) rather than a min-scan over every lane."""
        lanes = self._lanes_s.get(name)
        return lanes[0] if lanes else 0.0

    def quiesce(self, actor_names=None) -> None:
        """No-op: the virtual engine executes nothing between ticks."""

    # -- submission ----------------------------------------------------------------------

    def direct_call(self, name: str, method: str, args: tuple, kwargs: dict):
        """Synchronous call: the body runs inline and only the RPC latency is
        charged to the clock (an inline call has no modelled duration here)."""
        return self.system.invoke(name, method, args, kwargs, advance_rpc=True)

    def submit(self, call: PendingCall) -> None:
        queue = self._queues.get(call.name)
        if queue is None:
            queue = self._queues[call.name] = deque()
        was_empty = not queue
        queue.append(call)
        if was_empty:
            # The call became its actor's queue head: index it in the
            # global dispatch heap.  Non-head calls are indexed lazily
            # when they surface (FIFO per actor), keeping submission
            # O(log A).
            self._push_head(call.name)

    def on_future_cancelled(self, name: str, future) -> None:
        """Re-key an actor whose queue *head* was cancelled.

        Cancelling the head exposes the next call, whose dispatch key may be
        *smaller* (an earlier ``earliest_start_s``) — the one way an actor's
        true key can decrease.  Without an immediate re-index the stale heap
        entry would over-estimate the actor's key and another actor could be
        dispatched first, out of ``(start, seq)`` order.  Non-head
        cancellations leave the head (and its key) untouched.
        """
        queue = self._queues.get(name)
        if queue and queue[0].future is future:
            self._push_head(name)

    # -- dispatch ------------------------------------------------------------------------

    def _push_head(self, name: str) -> None:
        """Index the actor's current queue head in the global dispatch heap."""
        queue = self._queues.get(name)
        if queue:
            purge_cancelled_heads(queue)
        if not queue:
            return
        head = queue[0]
        lanes = self._lanes_s.get(name)
        free = lanes[0] if lanes else 0.0
        start = head.ready_at_s if head.ready_at_s >= free else free
        heapq.heappush(self._heap, (start, head.seq, name, self._generation.get(name, 0)))
        self._heap_entries[name] = self._heap_entries.get(name, 0) + 1

    def _drop_heap_entry(self, name: str) -> None:
        remaining = self._heap_entries.get(name, 1) - 1
        if remaining > 0:
            self._heap_entries[name] = remaining
        else:
            self._heap_entries.pop(name, None)

    def _pop_next(self) -> PendingCall | None:
        """Pop the earliest queued call via the heap — O(log A).

        Heap entries are keyed ``(start, seq)`` with ``seq`` globally unique,
        so ties cannot occur and the executed order is the one a scan over
        every queue head for the smallest key would give.  Entries go stale only when their actor's head
        changed (the head executes → busy window moves → next head surfaces)
        or its future was cancelled externally; stale entries are discarded
        when they reach the top — or re-keyed in place when they are the
        actor's last entry, preserving the invariant that every non-empty
        queue keeps at least one entry.  A same-head entry is always *exact*:
        the busy window of an actor only moves when that actor executes,
        which pops the head and retires the entry by sequence number.
        """
        heap = self._heap
        queues = self._queues
        while heap:
            start, seq, name, gen = heap[0]
            if gen != self._generation.get(name, 0):
                # Entry of a retired/destroyed incarnation (possibly of a
                # reused name): its count was dropped at removal, so discard
                # without touching the live accounting.
                heapq.heappop(heap)
                continue
            queue = queues.get(name)
            if queue:
                purge_cancelled_heads(queue)
            if not queue:
                heapq.heappop(heap)
                self._drop_heap_entry(name)
                continue
            head = queue[0]
            lanes = self._lanes_s.get(name)
            free = lanes[0] if lanes else 0.0
            cur_start = head.ready_at_s if head.ready_at_s >= free else free
            if seq != head.seq or start != cur_start:
                if self._heap_entries.get(name, 1) > 1:
                    heapq.heappop(heap)
                    self._heap_entries[name] -= 1
                else:
                    heapq.heapreplace(heap, (cur_start, head.seq, name, gen))
                continue
            heapq.heappop(heap)
            self._drop_heap_entry(name)
            queue.popleft()
            return head
        return None

    def tick(self, max_calls: int | None = 1) -> int:
        """Execute up to ``max_calls`` deferred calls in virtual-time order.

        ``max_calls=None`` executes without a budget until no runnable call
        remains.  It is the batched mode :meth:`drain` uses, and it is one
        round of ``StepPipeline``'s pump: the pipeline drains the engine, then
        scans the step's loaders once.  Either way the loop stays inside the
        dispatcher instead of re-entering it per call.

        Each executed call advances the shared clock to its start instant
        and is booked chunk by chunk (:meth:`ActorSystem.book_chunks`); its
        last chunk's end is published on the future.
        Returns the number of calls actually executed.  Exceptions raised by
        the callee (including injected :class:`ActorDead` / :class:`ActorTimeout`)
        are captured on the future rather than propagated.
        """
        system = self.system
        clock = system.clock
        lanes_s = self._lanes_s
        queues = self._queues
        retiring = system._retiring
        pop_next = self._pop_next
        # The executed call's lanes and nested-call time, which the booking
        # hooks below read (bound once per tick, not per call).
        lanes: list[float] = []
        nested_s = 0.0

        def lane_ends() -> list[float]:
            return lanes

        def occupy(chunk_start_s: float, duration_s: float) -> tuple[float, float]:
            nonlocal nested_s
            end = chunk_start_s + nested_s + system.rpc_latency_s + duration_s
            nested_s = 0.0
            # Book the earliest-free lane until ``end``, keeping the lanes
            # sorted (a handful per actor).
            del lanes[0]
            insort(lanes, end)
            return end, (lanes[0] if lanes[0] > end else end)

        executed = 0
        while max_calls is None or executed < max_calls:
            call = pop_next()
            if call is None:
                system.sweep_retirements()
                break
            name = call.name
            # Lane lists are sorted: ``lanes[0]`` is the earliest-free lane.
            lanes = lanes_s.get(name)
            free = lanes[0] if lanes else 0.0
            start = call.ready_at_s if call.ready_at_s >= free else free
            if system.dispatch_trace is not None:
                system.dispatch_trace.append((start, call.seq, name, call.method))
            clock.advance_to(start)
            clock_before = clock.now_s
            try:
                result = system.invoke(
                    name, call.method, call.args, call.kwargs, advance_rpc=False
                )
            except Exception as exc:  # noqa: BLE001 - routed to the future
                call.future._fail(exc)
            else:
                # Re-read: the call may have stopped or restarted its own actor.
                lanes = lanes_s.get(name)
                if lanes is None:
                    lanes = lanes_s[name] = [0.0]
                # Nested synchronous calls made by the target advance the
                # clock; fold exactly that delta into the first chunk so
                # completion never precedes work the call itself performed.
                nested_s = clock.now_s - clock_before
                end = system.book_chunks(call, result, start, lane_ends, occupy)
                call.future._complete(result, available_at_s=end)
            if queues.get(name):
                # Only this actor's key changed: re-index its next head.
                self._push_head(name)
            if retiring:
                system.finish_retirement(name)
            executed += 1
        return executed

    def drain(self) -> int:
        """Run the event engine until no pending calls remain.

        One unbounded tick per pass: the dispatch loop keeps popping until
        the index is empty (nested submits included), so draining pays no
        pending-count scan per batch.
        """
        executed = 0
        while ran := self.tick():
            executed += ran
        return executed

    def wait_future(self, future: ActorFuture, timeout_s: float) -> None:
        """Tick events forward until ``future`` resolves, the virtual deadline
        passes, or the engine runs dry (the clock *is* the progress meter)."""
        clock = self.system.clock
        deadline = clock.now_s + timeout_s
        while not future.done() and clock.now_s < deadline:
            if self.tick() == 0:
                break

    def pending_count(self) -> int:
        return sum(
            1
            for queue in self._queues.values()
            for call in queue
            if not call.future.cancelled()
        )

    def cancel_pending(self, actor_name: str | None = None) -> int:
        """Cancel queued calls (for one actor, or all); returns how many."""
        cancelled = 0
        names = list(self._queues) if actor_name is None else [actor_name]
        for name in names:
            queue = self._queues.get(name)
            if not queue:
                continue
            # Snapshot first: cancelling a head triggers the engine's
            # re-key hook, which purges cancelled heads from the live deque.
            snapshot = list(queue)
            for call in snapshot:
                if call.future.cancel():
                    cancelled += 1
            self._queues[name] = deque(
                call for call in snapshot if not call.future.cancelled()
            )
        # Cancellation may have drained a retiring actor's queue; finalize
        # such retirements now rather than waiting for a dispatch that may
        # never come.
        self.system.sweep_retirements()
        return cancelled
