"""Actor base class and handles.

Actors are plain Python objects owned by an :class:`~repro.actors.runtime.ActorSystem`.
Methods are invoked through an :class:`ActorHandle`, which checks liveness,
applies failure injection and accounts simulated RPC latency — close enough to
Ray's remote-call semantics for the control flow the paper exercises
(detection via RPC timeouts, restart from GCS state, shadow promotion).
"""

from __future__ import annotations

import enum
import threading

from repro.errors import ActorDead, ActorError, ActorTimeout
from repro.metrics.memory import MemoryLedger


class ActorState(str, enum.Enum):
    STARTING = "starting"
    RUNNING = "running"
    FAILED = "failed"
    STOPPED = "stopped"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Actor:
    """Base class for actors.

    Subclasses implement ordinary methods; the runtime injects ``actor_name``,
    a per-actor :class:`MemoryLedger` and a reference to the hosting node at
    creation time.  Actors that want checkpoint/restore support override
    :meth:`state_dict` and :meth:`load_state_dict`.
    """

    #: Role string recorded in the GCS registry (e.g. "source_loader").
    role = "actor"

    def __init__(self) -> None:
        self.actor_name: str = ""
        self.ledger: MemoryLedger = MemoryLedger()
        self.node_name: str = ""
        # Injected by the runtime at creation; lets actors publish
        # by-reference payloads (GCS freeze-on-put) without plumbing the
        # store through every constructor.
        self.gcs = None

    def on_start(self) -> None:
        """Hook invoked once the actor is placed and registered."""

    def on_stop(self) -> None:
        """Hook invoked when the actor is stopped or killed."""

    def state_dict(self) -> dict:
        """Checkpointable state (empty by default)."""
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore from :meth:`state_dict` output (no-op by default)."""

    def heartbeat_payload(self) -> dict:
        """Extra data attached to heartbeats (buffer depths, queue sizes)."""
        return {}


class FutureState(str, enum.Enum):
    PENDING = "pending"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class ActorFuture:
    """Deferred result of an asynchronous actor call.

    Under the virtual backend futures are completed cooperatively: the owning
    :class:`~repro.actors.runtime.ActorSystem` executes pending calls when its
    event loop is ticked, so completion order is deterministic (FIFO submit
    order) rather than wall-clock dependent.  Under the wallclock backend the
    same futures bridge to *real* completions signalled from actor lane
    threads, so every state transition is guarded by a shared lock and
    waiters are thread-safe.  Completion is observed by polling :meth:`done`
    or waiting in :meth:`result` (``timeout=``).
    """

    __slots__ = (
        "actor",
        "method",
        "state",
        "_result",
        "_exception",
        "available_at_s",
        "_owner",
        "_event",
        "_running",
    )

    #: Shared transition lock.  One lock for all futures keeps the per-future
    #: footprint flat (no lock allocation on the virtual hot path) while
    #: making complete/fail/cancel linearizable against wallclock lane
    #: threads; the critical sections are a handful of attribute writes.
    _transitions = threading.Lock()

    def __init__(self, actor: str, method: str) -> None:
        self.actor = actor
        self.method = method
        self.state = FutureState.PENDING
        self._result: object = None
        self._exception: BaseException | None = None
        #: Virtual-clock instant the call's result becomes available (set on
        #: completion by the event engine); ``None`` while pending/failed.
        self.available_at_s: float | None = None
        #: Owning engine (set by ``submit_call``): cancellation must notify
        #: the dispatcher, because cancelling a queue *head* can lower its
        #: actor's dispatch key (the next call may be ready earlier), and
        #: ``result(timeout=)`` delegates its wait strategy to the owner.
        self._owner: object | None = None
        #: Completion event, created lazily (wallclock submits pre-create it;
        #: virtual futures never pay for one unless a waiter asks).
        self._event: threading.Event | None = None
        #: True once an execution lane picked the call up — the point past
        #: which cancellation must fail (the body may be mutating state).
        self._running = False

    # -- inspection -----------------------------------------------------------------

    def done(self) -> bool:
        return self.state is not FutureState.PENDING

    def cancelled(self) -> bool:
        return self.state is FutureState.CANCELLED

    def exception(self) -> BaseException | None:
        return self._exception

    def result(self, timeout: float | None = None):
        """The call's return value; raises if pending, failed or cancelled.

        ``timeout`` (clock seconds — virtual seconds under the virtual
        backend, scaled wall seconds under wallclock) bounds how long the
        call may take to complete instead of hanging: the owning engine
        drives/awaits completion and a still-pending future raises
        :class:`TimeoutError`.  ``timeout=None`` keeps the historical
        semantics: an un-completed future raises :class:`ActorError`
        immediately (tick the system first).
        """
        if self.state is FutureState.PENDING and timeout is not None:
            if self._owner is not None:
                self._owner.wait_future(self, timeout)
            else:
                # Detached future (no owning engine): wait for a completion
                # signalled from another thread, timeout in wall seconds.
                self._completion_event().wait(timeout)
            if self.state is FutureState.PENDING:
                raise TimeoutError(
                    f"future for {self.actor}.{self.method} did not complete "
                    f"within {timeout}s"
                )
        if self.state is FutureState.PENDING:
            raise ActorError(
                f"future for {self.actor}.{self.method} is still pending; tick the system"
            )
        if self.state is FutureState.CANCELLED:
            raise ActorError(f"future for {self.actor}.{self.method} was cancelled")
        if self._exception is not None:
            raise self._exception
        return self._result

    # -- completion (runtime-internal) ---------------------------------------------

    def _completion_event(self) -> threading.Event:
        """The future's completion event, created (and back-filled) on demand."""
        with ActorFuture._transitions:
            if self._event is None:
                self._event = threading.Event()
                if self.state is not FutureState.PENDING:
                    self._event.set()
            return self._event

    def _mark_running(self) -> bool:
        """Claim the call for execution; False if it was cancelled first."""
        with ActorFuture._transitions:
            if self.state is not FutureState.PENDING:
                return False
            self._running = True
            return True

    def cancel(self) -> bool:
        """Cancel the call if it has not started executing; returns success."""
        with ActorFuture._transitions:
            if self.state is not FutureState.PENDING or self._running:
                return False
            self.state = FutureState.CANCELLED
            event = self._event
        if event is not None:
            event.set()
        if self._owner is not None:
            self._owner.on_future_cancelled(self.actor, self)
        return True

    def _complete(self, result: object, available_at_s: float | None = None) -> None:
        with ActorFuture._transitions:
            if self.state is not FutureState.PENDING:
                return
            self._result = result
            self.available_at_s = available_at_s
            self.state = FutureState.DONE
            event = self._event
        if event is not None:
            event.set()

    def _fail(self, exc: BaseException) -> None:
        with ActorFuture._transitions:
            if self.state is not FutureState.PENDING:
                return
            self._exception = exc
            self.state = FutureState.FAILED
            event = self._event
        if event is not None:
            event.set()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ActorFuture({self.actor!r}.{self.method}, {self.state})"


class ActorHandle:
    """A callable reference to a placed actor."""

    def __init__(self, system: "object", name: str) -> None:
        self._system = system
        self.name = name

    @property
    def state(self) -> ActorState:
        return self._system.actor_state(self.name)

    def call(self, method: str, *args: object, **kwargs: object):
        """Invoke ``method`` on the actor.

        Raises :class:`ActorDead` if the actor has failed or been stopped and
        :class:`ActorTimeout` if failure injection times the actor out.
        """
        return self._system.call_actor(self.name, method, args, kwargs)

    def submit(self, method: str, *args: object, **kwargs: object) -> ActorFuture:
        """Enqueue ``method`` as a deferred call; completed when the system ticks."""
        return self._system.submit_call(self.name, method, args, kwargs)

    def submit_timed(
        self,
        method: str,
        *args: object,
        step_tag: int | None = None,
        duration_s: float | None = None,
        earliest_start_s: float | None = None,
        **kwargs: object,
    ) -> ActorFuture:
        """Enqueue a deferred call with explicit virtual-clock scheduling.

        ``earliest_start_s`` declares a causal dependency (the call cannot
        start before that virtual instant); ``duration_s`` overrides the
        latency-provider-derived virtual duration; ``step_tag`` tags the
        executed event on the system timeline for per-step overlap
        accounting.  The scheduling keywords are deliberately named so they
        cannot shadow actor-method parameters like ``step`` — method
        arguments pass through ``*args``/``**kwargs`` untouched.
        """
        return self._system.submit_call(
            self.name,
            method,
            args,
            kwargs,
            duration_s=duration_s,
            earliest_start_s=earliest_start_s,
            step_tag=step_tag,
        )

    def call_settled(
        self,
        method: str,
        *args: object,
        step_tag: int | None = None,
        earliest_start_s: float | None = None,
    ) -> ActorFuture:
        """:meth:`call` in :meth:`submit_timed`'s shape: run now, settle a future.

        The call executes on the caller, as any ``call`` does, and its outcome
        (result or raised exception) rides on the returned, already-settled
        future, so a driver written against futures can issue inline.  Nothing
        is queued on the engine and no timeline event is recorded: the
        scheduling keywords go unused and ``available_at_s`` stays ``None``.
        """
        future = ActorFuture(self.name, method)
        try:
            future._complete(self.call(method, *args))
        except Exception as exc:  # noqa: BLE001 - routed to the future, as tick() does
            future._fail(exc)
        return future

    def instance(self) -> Actor:
        """Direct access to the underlying object (tests / same-process reads)."""
        return self._system.actor_instance(self.name)

    def __getattr__(self, method: str):
        if method.startswith("_"):
            raise AttributeError(method)

        def _remote_method(*args: object, **kwargs: object):
            return self.call(method, *args, **kwargs)

        return _remote_method

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ActorHandle({self.name!r})"


__all__ = [
    "Actor",
    "ActorFuture",
    "ActorHandle",
    "ActorState",
    "FutureState",
    "ActorDead",
    "ActorTimeout",
]
