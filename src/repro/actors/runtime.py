"""The actor system: creation, placement, invocation, failure and restart.

The runtime keeps a registry of live actors, routes method calls through
failure-injection hooks, accounts a small RPC latency per remote call and
supports the recovery mechanisms the paper relies on: automatic restart of
coordinators from GCS state and promotion of hot-standby (shadow) actors.

Deferred calls (:meth:`ActorSystem.submit_call` / :meth:`ActorSystem.tick`)
execute on exactly one **engine**, built in ``__init__`` and held as
``ActorSystem.engine``: the deterministic discrete-event
:class:`~repro.actors.virtual.VirtualEngine` (``backend="virtual"``, the
default) or the thread-parallel
:class:`~repro.actors.wallclock.WallclockEngine` (``backend="wallclock"``).
Both serve one method set, so every engine-facing method here is an
unconditional delegation.  What they share is written once on
:class:`ActorSystem` and called by both: the invocation core (``invoke``),
the booking loop (``book_chunks``) with its duration model
(``modelled_duration``) and timeline recording (``record_event``), and the
drain-retirement sweep (``finish_retirement`` / ``sweep_retirements``).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.actors.actor import Actor, ActorFuture, ActorHandle, ActorState
from repro.actors.gcs import GlobalControlStore
from repro.actors.node import (
    DEFAULT_ACCELERATOR_RESOURCES,
    DEFAULT_CPU_POD_RESOURCES,
    Node,
    NodeKind,
    ResourceSpec,
)
from repro.actors.scheduler import PlacementDecision, PlacementRequest, PlacementScheduler
from repro.actors.virtual import PendingCall, VirtualClock, VirtualEngine
from repro.errors import ActorDead, ActorError, SchedulingError
from repro.metrics.memory import MemoryLedger
from repro.metrics.timeline import TIMELINE_WINDOW, Timeline
from repro.utils.ids import IdAllocator

#: Modelled latency of one remote call, in virtual seconds.
RPC_LATENCY_S = 0.0002


def chunk_count(result: object) -> int:
    """How many chunks an executed call books: one per entry of the
    ``chunk_wall_clock_s`` tuple its result carries (a loader ticket,
    :meth:`~repro.core.source_loader.SourceLoader.poll`), and at least one."""
    if type(result) is dict and "chunk_wall_clock_s" in result:
        return max(1, len(result["chunk_wall_clock_s"]))
    return 1


@dataclass(frozen=True)
class ClusterSpec:
    """Shape of the simulated cluster."""

    accelerator_nodes: int = 2
    cpu_pods: int = 1
    accelerator_resources: ResourceSpec = DEFAULT_ACCELERATOR_RESOURCES
    cpu_pod_resources: ResourceSpec = DEFAULT_CPU_POD_RESOURCES

    def build_nodes(self) -> list[Node]:
        nodes: list[Node] = []
        for index in range(self.accelerator_nodes):
            nodes.append(
                Node(
                    name=f"accel-{index}",
                    kind=NodeKind.ACCELERATOR,
                    resources=self.accelerator_resources,
                )
            )
        for index in range(self.cpu_pods):
            nodes.append(
                Node(name=f"cpu-pod-{index}", kind=NodeKind.CPU, resources=self.cpu_pod_resources)
            )
        return nodes


@dataclass
class _ActorRecord:
    instance: Actor
    factory: Callable[[], Actor]
    request: PlacementRequest
    placement: PlacementDecision
    state: ActorState
    #: The actor class's ``role`` tag, read once here instead of per event.
    role: str = "actor"
    restart_count: int = 0
    #: Whether the actor's scheduler reservation was force-released by a node
    #: crash: a restart must re-book it (the node rebooted) and a stop must
    #: not release it twice.
    released: bool = False


@dataclass
class FailureInjector:
    """Programmable failure behaviour for tests and fault-tolerance benches."""

    #: Actors that should raise ActorDead on their next call.
    dead_actors: set[str] = field(default_factory=set, init=False)

    def fail(self, actor_name: str) -> None:
        self.dead_actors.add(actor_name)

    def clear(self, actor_name: str | None = None) -> None:
        if actor_name is None:
            self.dead_actors.clear()
        else:
            self.dead_actors.discard(actor_name)


class ActorSystem:
    """Owns nodes, the GCS and every actor placed on the cluster."""

    #: Execution backends accepted by ``backend=``: the discrete-event
    #: virtual-clock engine (deterministic reference) or real thread-parallel
    #: lanes behind the same API (:mod:`repro.actors.wallclock`).
    BACKENDS = ("virtual", "wallclock")

    def __init__(
        self,
        cluster: ClusterSpec | None = None,
        backend: str = "virtual",
        time_scale: float = 1.0,
        placement_policy: str = "spread",
    ) -> None:
        if backend not in self.BACKENDS:
            raise ActorError(
                f"unknown backend {backend!r}; expected one of {self.BACKENDS}"
            )
        self.cluster = cluster or ClusterSpec()
        self.nodes = self.cluster.build_nodes()
        self.scheduler = PlacementScheduler(self.nodes, policy=placement_policy)
        self.gcs = GlobalControlStore()
        self.failures = FailureInjector()
        self.rpc_latency_s = RPC_LATENCY_S
        self._actors: dict[str, _ActorRecord] = {}
        #: Actors draining toward retirement: no new submissions are accepted
        #: and the actor is finalized as soon as its queue runs dry.
        self._retiring: set[str] = set()
        self._ids = IdAllocator()
        #: Global submission sequence (the engines' deterministic tie-breaker).
        self._seq = 0
        #: Optional execution-trace sink for equivalence tests: when set to a
        #: list, every dispatched event appends ``(start, seq, actor, method)``.
        self.dispatch_trace: list[tuple[float, int, str, str]] | None = None
        self.backend = backend
        if backend == "wallclock":
            # Local import: the wallclock engine pulls in the latency
            # recorder from the cost-model layer, which virtual-only users
            # never need at import time.
            from repro.actors.wallclock import WallClock, WallclockEngine

            self.clock = WallClock(time_scale)
            self.engine = WallclockEngine(self)
        else:
            self.clock = VirtualClock()
            self.engine = VirtualEngine(self)
        self.engine: VirtualEngine | WallclockEngine  # exactly one, never None
        #: Executed deferred calls as timed intervals (one event per call),
        #: tagged with the actor's role and, when provided, the pipeline step.
        self.timeline = Timeline(window=TIMELINE_WINDOW)
        #: Optional duck-typed hook ``call_duration_s(actor, method, result)``
        #: deriving virtual durations from call results, called once per
        #: booked chunk (see :mod:`repro.core.cost_model`).  ``None`` means
        #: every deferred call is instantaneous apart from the RPC latency.
        self.latency_provider = None
        #: Optional fault-injection hook (see :mod:`repro.chaos`): consulted
        #: on every invocation (both engines route through :meth:`invoke`)
        #: and on every deferred call's :meth:`modelled_duration`, so
        #: declarative fault plans act on virtual and wallclock execution
        #: through one interface.
        self.chaos = None

    # -- cluster management --------------------------------------------------------

    def node(self, name: str) -> Node:
        return self.scheduler.node(name)

    @property
    def latency_provider(self):
        return self._latency_provider

    @latency_provider.setter
    def latency_provider(self, provider) -> None:
        # The provider's protocol is read once, not per event.
        self._latency_provider = provider
        self._lane_context = getattr(provider, "wants_lane_context", False)

    @property
    def clock_s(self) -> float:
        """Current virtual time (kept as a float property for back-compat)."""
        return self.clock.now_s

    def advance_clock(self, seconds: float) -> None:
        self.clock.advance(seconds)

    def actor_free_at_s(self, name: str) -> float:
        """Virtual instant the actor can start another call (earliest lane).

        Under the wallclock backend this is the actor's latest *real*
        completion instant instead (there is no booked future window to
        report — lanes finish when they finish).
        """
        return self.engine.free_at_s(name)

    def quiesce(self, actor_names=None) -> None:
        """Barrier: wait until the named actors (all, if None) are idle.

        The virtual engine executes nothing between ticks, so this is a
        no-op there; under the wallclock backend it blocks until the actors
        have no queued or in-flight call — the invariant recovery code needs
        before rewinding actor state.
        """
        self.engine.quiesce(actor_names)

    # -- actor lifecycle --------------------------------------------------------------

    def create_actor(
        self,
        factory: Callable[[], Actor],
        name: str | None = None,
        cpu_cores: float = 1.0,
        memory_bytes: int = 64 * 1024 * 1024,
        prefer: NodeKind = NodeKind.ACCELERATOR,
        anti_affinity: str | None = None,
        allow_spill: bool = True,
        concurrency: int = 1,
        tenant: str | None = None,
        free_from_s: float | None = None,
    ) -> ActorHandle:
        """Instantiate, place and register a new actor; returns its handle.

        ``concurrency`` is the number of parallel execution lanes the actor
        occupies on the virtual clock (default 1 = fully serialized calls).
        Calls still *execute* in strict FIFO order per actor — only their
        simulated busy windows may overlap — so actor state stays
        deterministic while e.g. a loader's worker pool can serve several
        prefetch tickets concurrently.  The lane count is fixed for the
        actor's life.

        Every lane is free from the current instant.  ``free_from_s``
        overrides that instant (only virtual-backend callers pass one).  On a
        dedicated system the global clock's ``now_s`` is the spawning job's
        own event frontier, so the default is right; on a *shared*
        (multi-tenant) system the global clock sits at whichever tenant was
        simulated last, and anchoring a spawn there would charge this tenant
        a wait it never caused.  Callers spawning on behalf of one tenant
        pass that tenant's causal frontier instead.
        """
        if concurrency < 1:
            raise ActorError("actor concurrency must be >= 1")
        instance = factory()
        role = getattr(type(instance), "role", "actor")
        # Unnamed actors draw ids from a per-tenant allocator namespace so two
        # tenants sharing one system never collide on generated names.
        id_namespace = f"{tenant}/{role}" if tenant else role
        actor_name = name or self._ids.next_name(id_namespace)
        if actor_name in self._actors:
            raise ActorError(f"duplicate actor name {actor_name!r}")
        request = PlacementRequest(
            actor_name=actor_name,
            cpu_cores=cpu_cores,
            memory_bytes=memory_bytes,
            prefer=prefer,
            anti_affinity=anti_affinity,
            allow_spill=allow_spill,
            tenant=tenant,
        )
        placement = self.scheduler.place(request)
        node = self.scheduler.node(placement.node_name)

        instance.actor_name = actor_name
        instance.ledger = MemoryLedger(name=f"actor:{actor_name}")
        instance.node_name = node.name
        instance.gcs = self.gcs
        node.ledger.adopt(instance.ledger)

        record = _ActorRecord(
            instance=instance,
            factory=factory,
            request=request,
            placement=placement,
            state=ActorState.RUNNING,
            role=role,
        )
        self._actors[actor_name] = record
        self._retiring.discard(actor_name)
        anchor_s = self.clock.now_s if free_from_s is None else float(free_from_s)
        self.engine.register_actor(actor_name, concurrency, anchor_s)
        self.gcs.register_actor(actor_name)
        instance.on_start()
        return ActorHandle(self, actor_name)

    def resize_actor_pool(self, name: str, cpu_cores: float | None = None) -> None:
        """Re-book a running actor's CPU reservation.

        Applies a worker-pool resize in place (elastic
        ``target_workers_per_actor`` directives): the node reservation is
        re-booked at the new core count on the actor's existing node; the
        actor's execution lanes are unchanged.  Raises
        :class:`SchedulingError` when the node cannot fit the grown
        reservation; the old reservation is restored before raising, so a
        failed resize leaves the actor untouched.
        """
        record = self._record(name)
        if record.state is not ActorState.RUNNING:
            raise ActorError(f"cannot resize actor {name!r} in state {record.state}")
        if cpu_cores is not None and cpu_cores != record.request.cpu_cores:
            node = self.scheduler.node(record.placement.node_name)
            old = record.request
            # Node.release drops the whole residency entry, so re-book the
            # full reservation rather than a delta; on failure the old
            # booking (just released) is guaranteed to fit again.
            node.release(name, old.cpu_cores, old.memory_bytes)
            try:
                node.reserve(name, cpu_cores, old.memory_bytes)
            except SchedulingError:
                node.reserve(name, old.cpu_cores, old.memory_bytes)
                raise
            record.request = replace(old, cpu_cores=cpu_cores)
            self.scheduler.adjust_tenant_usage(old.tenant, name, cpu_cores - old.cpu_cores)

    def kill_actor(self, name: str) -> None:
        """Mark an actor failed, releasing its memory (its CPU slot stays reserved
        until restart or removal, matching pod semantics)."""
        record = self._record(name)
        record.state = ActorState.FAILED
        record.instance.ledger.release_all()

    def crash_node(self, node_name: str) -> list[str]:
        """Correlated failure: kill every actor placed on ``node_name``.

        Unlike :meth:`kill_actor` (one pod dying, its node intact), a node
        crash takes the reservations with it: each victim's CPU/memory
        booking is released back to the scheduler and marked so a later
        :meth:`restart_actor` re-books it (the node having "rebooted").
        Returns the killed actor names; queued calls to victims fail with
        :class:`ActorDead` at dispatch on either backend.
        """
        self.scheduler.node(node_name)  # reject unknown nodes eagerly
        victims = [
            name
            for name, record in self._actors.items()
            if record.placement.node_name == node_name
            and record.state is ActorState.RUNNING
        ]
        for name in victims:
            self.kill_actor(name)
            self._release_reservation(name)
        return victims

    def _release_reservation(self, name: str) -> None:
        """Return the actor's CPU/memory booking to the scheduler, once."""
        record = self._actors[name]
        if not record.released:
            self.scheduler.release(
                name,
                record.placement.node_name,
                record.request.cpu_cores,
                record.request.memory_bytes,
                tenant=record.request.tenant,
            )
            record.released = True

    def stop_actor(self, name: str) -> None:
        """Gracefully stop and remove an actor, releasing its resources; its
        still-queued deferred calls fail with "was stopped"."""
        record = self._record(name)
        record.instance.on_stop()
        record.instance.ledger.release_all()
        record.state = ActorState.STOPPED
        node = self.scheduler.node(record.placement.node_name)
        node.ledger.disown(record.instance.ledger)
        self._release_reservation(name)
        self._actors.pop(name, None)
        self._retiring.discard(name)
        self.engine.stop_actor(name)
        self.gcs.deregister_actor(name)

    def retire_actor(self, name: str) -> bool:
        """Gracefully retire an actor mid-run by draining it.

        Unlike :meth:`stop_actor` (which fails still-queued calls), the actor
        stops accepting new submissions but its already-queued calls keep
        dispatching in their normal virtual-time order; the actor is stopped
        (resources released, heap entries invalidated) the moment its queue
        runs dry.  Returns ``True`` when the actor retired immediately (empty
        queue), ``False`` when the retirement is pending a drain.

        Surviving actors' indexed-heap entries are untouched — the retired
        actor's entries go stale via its generation stamp and are lazily
        discarded, so the relative dispatch order of every other actor is
        byte-identical to a run where the retirement never happened.
        """
        record = self._record(name)
        if record.state is not ActorState.RUNNING:
            raise ActorError(f"actor {name!r} is not running; cannot retire")
        if self.engine.is_idle(name):
            self.stop_actor(name)
            return True
        self._retiring.add(name)
        return False

    def retiring(self, name: str) -> bool:
        """Whether the actor is draining toward retirement."""
        return name in self._retiring

    def finish_retirement(self, name: str) -> None:
        """Finalize a retirement once the engine reports the actor idle."""
        if name in self._retiring and self.engine.is_idle(name):
            self.stop_actor(name)

    def sweep_retirements(self) -> None:
        """The one retirement sweep: both engines call it when they run dry."""
        for name in list(self._retiring):
            self.finish_retirement(name)

    def restart_actor(self, name: str, state: dict | None = None) -> ActorHandle:
        """Restart a failed actor in place, optionally restoring checkpoint state."""
        record = self._record(name)
        node = self.scheduler.node(record.placement.node_name)
        if record.released:
            # The actor's node crashed and its reservation was force-released;
            # restarting in place means the node rebooted — re-book the slot.
            self.scheduler.rebook(record.request, record.placement.node_name)
            record.released = False
        node.ledger.disown(record.instance.ledger)
        fresh = record.factory()
        fresh.actor_name = name
        fresh.ledger = MemoryLedger(name=f"actor:{name}")
        fresh.node_name = node.name
        fresh.gcs = self.gcs
        node.ledger.adopt(fresh.ledger)
        record.instance = fresh
        record.role = getattr(type(fresh), "role", "actor")
        record.state = ActorState.RUNNING
        record.restart_count += 1
        self.failures.clear(name)
        if state is not None:
            fresh.load_state_dict(state)
        fresh.on_start()
        return ActorHandle(self, name)

    # -- invocation ----------------------------------------------------------------------

    def call_actor(self, name: str, method: str, args: tuple, kwargs: dict):
        return self.engine.direct_call(name, method, args, kwargs)

    def invoke(self, name: str, method: str, args: tuple, kwargs: dict, advance_rpc: bool):
        """Shared execution core of synchronous and deferred dispatch.

        Applies failure injection and liveness checks, optionally charges the
        RPC latency to the virtual clock (synchronous path) and runs the
        method.  The engine, not this method, books an executed deferred
        call on :attr:`timeline` (:meth:`record_event`).
        """
        record = self._record(name)
        if self.chaos is not None:
            # The chaos hook fires due fault-plan events (which may kill this
            # very actor — caught by the liveness check below) and vetoes the
            # call when a blip/blackout window covers it.  Faults raise before
            # the method body runs, so retried calls re-execute cleanly.
            self.chaos.on_invoke(name, method, record)
        if record.state is not ActorState.RUNNING or name in self.failures.dead_actors:
            record.state = ActorState.FAILED
            raise ActorDead(f"actor {name!r} is not running")
        target = getattr(record.instance, method, None)
        if target is None or not callable(target):
            raise ActorError(f"actor {name!r} has no method {method!r}")
        if advance_rpc:
            self.advance_clock(self.rpc_latency_s)
        return target(*args, **kwargs)

    # -- deferred calls (executed by the engine) -----------------------------------------

    def submit_call(
        self,
        name: str,
        method: str,
        args: tuple,
        kwargs: dict,
        duration_s: float | None = None,
        earliest_start_s: float | None = None,
        step_tag: int | None = None,
    ) -> ActorFuture:
        """Enqueue a deferred call and return its future.

        The call does not execute until :meth:`tick` (or :meth:`drain`) runs;
        failure injection and liveness checks are applied at execution time, so
        a failure injected after submission still fails the future.

        Scheduling semantics on the virtual clock: the call becomes eligible
        at ``earliest_start_s`` when given (the caller-declared causal
        dependency, e.g. "preparation cannot start before the plan was
        broadcast"), otherwise at the current virtual time; it actually starts
        at the later of that instant and the target actor's busy window, and
        occupies the actor for ``duration_s`` virtual seconds (derived via the
        system's ``latency_provider`` when ``None``) plus the RPC latency.
        """
        if name not in self._actors:  # reject unknown actors eagerly
            raise ActorError(f"unknown actor {name!r}")
        if name in self._retiring:
            raise ActorError(f"actor {name!r} is retiring and accepts no new calls")
        future = ActorFuture(name, method)
        ready_at = self.clock.now_s if earliest_start_s is None else float(earliest_start_s)
        self._seq += 1
        # ``kwargs`` is stored without a defensive copy: ActorHandle builds a
        # fresh dict per submit, and copying here doubled the per-submit
        # allocations on the hot path.
        call = PendingCall(
            future,
            name,
            method,
            args,
            kwargs,
            ready_at_s=ready_at,
            duration_s=duration_s,
            step=step_tag,
            seq=self._seq,
        )
        future._owner = self.engine  # cancel() / result(timeout=) go to the queue's holder
        self.engine.submit(call)
        return future

    def tick(self, max_calls: int | None = 1) -> int:
        """Execute up to ``max_calls`` deferred calls (``None``: until none is
        runnable); returns how many ran.

        The virtual engine executes them here, in virtual-time order; the
        wallclock engine acknowledges *real* completions instead: it returns
        immediately while unacknowledged completions exist, blocks for at
        least one when work is in flight, and returns 0 only when the engine
        is idle — so virtual-engine driver loops terminate unmodified.
        """
        return self.engine.tick(max_calls)

    def drain(self, deadline_s: float | None = None) -> int:
        """Run the engine until no pending calls remain; returns how many ran.

        ``deadline_s`` bounds the drain in clock units (virtual seconds on
        either backend) and raises :class:`TimeoutError` on expiry.
        """
        return self.engine.drain(deadline_s)

    def pending_count(self, actor_name: str | None = None) -> int:
        return self.engine.pending_count(actor_name)

    def cancel_pending(self, actor_name: str | None = None) -> int:
        """Cancel queued calls (for one actor, or all); returns how many.

        Under the wallclock backend this additionally *waits* for the
        affected actors' in-flight calls to drain, preserving the virtual
        engine's contract that nothing pending is mid-execution afterwards.
        """
        return self.engine.cancel_pending(actor_name)

    # -- shared by both engines ----------------------------------------------------------

    def book_chunks(
        self, call: PendingCall, result: object, start_s: float, lane_ends, occupy
    ) -> float:
        """The one booking loop of an executed deferred call, on both engines.

        The call books :func:`chunk_count` chunks back to back, a chain of
        one for most calls.  Each chunk is priced (:meth:`modelled_duration`)
        with the actor's lanes as they stand at its own start
        (``lane_ends()``, ascending); ``occupy(start_s, duration_s)`` holds
        the actor's earliest-free lane for the chunk plus the RPC latency and
        returns ``(end_s, next_start_s)``; one timeline event records it.
        The next chunk starts at ``next_start_s`` — this chunk's end, or the
        instant a lane frees if that is later — and the clock advances
        there.  Returns the last chunk's end, the call's completion instant.
        """
        duration = call.duration_s
        for chunk in range(chunk_count(result)):
            if chunk:
                self.clock.advance_to(start_s)
            if call.duration_s is None:
                duration = self.modelled_duration(
                    call.name, call.method, result, start_s, lane_ends(), chunk=chunk
                )
            end_s, next_start_s = occupy(start_s, max(0.0, duration))
            self.record_event(call, start_s, end_s)
            start_s = next_start_s
        return end_s

    def modelled_duration(
        self,
        name: str,
        method: str,
        result: object,
        start_s: float,
        lane_ends_s=(),
        inline: bool = False,
        chunk: int = 0,
    ) -> float:
        """The one duration model: what the ``latency_provider`` says chunk
        ``chunk`` of an executed call costs (``0.0`` without one).

        A *deferred* call's duration is stretched by any active chaos
        ``straggler`` window, on both engines.  An ``inline`` (synchronous
        :meth:`call_actor`) call's is not, on either: the virtual engine gives
        an inline call no modelled duration at all, and the wallclock direct
        call — the only inline caller — sleeps the unscaled latency.
        """
        provider = self.latency_provider
        if provider is None:
            return 0.0
        record = self._actors.get(name)
        if record is None:
            return 0.0
        if self._lane_context:
            # Capacity-aware providers see the actor's role and its lane
            # occupancy at the event's start instant — which lanes are still
            # busy and until when — so a worker pool's throughput can be
            # split across concurrently in-flight tickets (the capacity-split
            # lane model).  Both engines keep lane ends ascending, so the busy
            # lanes are a suffix.
            busy_ends = tuple(lane_ends_s[bisect_right(lane_ends_s, start_s):])
            duration = provider.call_duration_s(
                record.instance,
                method,
                result,
                busy_lanes=1 + len(busy_ends),
                start_s=start_s,
                lane_ends_s=busy_ends,
                role=record.role,
                chunk=chunk,
            )
        else:
            duration = provider.call_duration_s(record.instance, method, result)
        duration = max(0.0, float(duration or 0.0))
        if self.chaos is not None and not inline:
            duration = self.chaos.scale_duration(
                record.instance, name, method, duration, start_s
            )
        return duration

    def record_event(self, call: PendingCall, start: float, end: float) -> None:
        """Record an executed deferred call as a timed interval on the timeline."""
        self.timeline.record(
            call.name, call.method, start, end - start, self.actor_role(call.name), call.step
        )

    # -- introspection ----------------------------------------------------------------------

    def has_actor(self, name: str) -> bool:
        return name in self._actors

    def actor_role(self, name: str) -> str:
        """The actor class's ``role`` tag (``"actor"`` if unset or unknown)."""
        record = self._actors.get(name)
        return record.role if record is not None else "actor"

    def actor_state(self, name: str) -> ActorState:
        return self._record(name).state

    def actor_instance(self, name: str) -> Actor:
        return self._record(name).instance

    def actor_node(self, name: str) -> str:
        return self._record(name).placement.node_name

    def restart_count(self, name: str) -> int:
        return self._record(name).restart_count

    def list_actor_names(self) -> list[str]:
        return [name for name in self.gcs.list_actors() if name in self._actors]

    def memory_by_node(self) -> dict[str, int]:
        """Live actor-charged memory per node (the Fig. 12 per-node metric)."""
        return {node.name: node.live_memory_bytes() for node in self.nodes}

    def _record(self, name: str) -> _ActorRecord:
        try:
            return self._actors[name]
        except KeyError:
            raise ActorError(f"unknown actor {name!r}") from None
