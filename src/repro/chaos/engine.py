"""The chaos engine: drives a :class:`FaultPlan` through the actor runtime.

``ChaosEngine.attach(system)`` installs the engine as the runtime's ``chaos``
hook, after which both backends consult it on every invocation
(:meth:`on_invoke`, called from ``ActorSystem.invoke`` — the shared
execution core of virtual ticks, wallclock lane threads and direct calls)
and on every deferred call's modelled duration (:meth:`scale_duration`,
called from ``ActorSystem.modelled_duration`` — the one duration model both
engines use).  One hook pair therefore covers both execution backends with
no per-backend code.

One-shot events (actor/node crashes) fire the first time the shared clock
reaches their instant; windowed events act for their whole window.  Faults
are injected *before* the target method body runs, so a retried call always
re-executes cleanly — the body of a chaos-failed call never started.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.chaos.plan import FaultEvent, FaultPlan
from repro.core.checkpoint import CheckpointStore
from repro.errors import ActorTimeout, StorageError


class ChaosEngine:
    """Schedules a fault plan against a live :class:`ActorSystem`."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.system = None
        #: One-shot events not yet fired, in instant order.
        self._pending = [e for e in plan.events if e.kind in ("actor_crash", "node_crash")]
        self._windows = [
            e for e in plan.events if e.kind not in ("actor_crash", "node_crash")
        ]
        #: Fired/activated events, for benchmark reporting: (kind, target, at_s).
        self.fired: list[tuple[str, str, float]] = []
        self._seen_windows: set[int] = set()
        #: Wallclock lanes call on_invoke concurrently; one-shot firing and
        #: the fired log are serialized so a crash never fires twice.
        self._lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------------------

    def attach(self, system) -> "ChaosEngine":
        """Install this engine as ``system.chaos`` (one engine per system)."""
        self.system = system
        system.chaos = self
        return self

    def wrap_store(self, store: CheckpointStore) -> "ChaosCheckpointStore":
        """A checkpoint store that obeys this plan's ``store_outage`` windows."""
        return ChaosCheckpointStore(store, self)

    # -- clock helpers -----------------------------------------------------------------

    def _now_s(self) -> float:
        return self.system.clock.now_s if self.system is not None else 0.0

    def _active(self, kind: str, now_s: float) -> list[FaultEvent]:
        out = []
        for idx, event in enumerate(self._windows):
            if event.kind != kind:
                continue
            if event.at_s <= now_s < event.end_s:
                out.append(event)
                with self._lock:
                    if idx not in self._seen_windows:
                        self._seen_windows.add(idx)
                        self.fired.append((event.kind, event.target, event.at_s))
        return out

    @staticmethod
    def _matches(target: str, name: str, role: str) -> bool:
        return target in ("", name, role)

    # -- runtime hooks -----------------------------------------------------------------

    def on_invoke(self, name: str, method: str, record) -> None:
        """Fire due one-shots, then veto the call if a window covers it.

        Raises :class:`ActorTimeout` for GCS blips and source blackouts —
        the fault classes that model an *unreachable but alive* component,
        which the retry policy can wait out.  Crashes surface as
        :class:`ActorDead` through the runtime's own liveness check right
        after this hook returns.
        """
        now_s = self._now_s()
        self._fire_due(now_s)
        for event in self._active("gcs_blip", now_s):
            if self._matches(event.target, name, record.role):
                raise ActorTimeout(
                    f"chaos gcs_blip: call to {name}.{method} timed out"
                )
        source = getattr(getattr(record.instance, "source", None), "name", None)
        if source is not None:
            for event in self._active("source_blackout", now_s):
                if event.target == source:
                    raise ActorTimeout(
                        f"chaos source_blackout[{source}]: {name}.{method} unreachable"
                    )

    def scale_duration(
        self, instance: Any, name: str, method: str, duration_s: float, start_s: float
    ) -> float:
        """Apply active straggler multipliers to a modelled call duration."""
        role = getattr(type(instance), "role", "actor")
        for event in self._active("straggler", start_s):
            if self._matches(event.target, name, role):
                duration_s *= event.factor
        return duration_s

    def store_outage_active(self) -> bool:
        return bool(self._active("store_outage", self._now_s()))

    def blackout_active(self, source: str) -> bool:
        """Whether a blackout window currently covers ``source``."""
        return any(
            event.target == source
            for event in self._active("source_blackout", self._now_s())
        )

    def _fire_due(self, now_s: float) -> None:
        if not self._pending or self.system is None:
            return
        with self._lock:
            due = [e for e in self._pending if e.at_s <= now_s]
            if not due:
                return
            self._pending = [e for e in self._pending if e.at_s > now_s]
            for event in due:
                self.fired.append((event.kind, event.target, event.at_s))
        for event in due:
            if event.kind == "actor_crash":
                if self.system.has_actor(event.target):
                    self.system.failures.fail(event.target)
            elif event.kind == "node_crash":
                self.system.crash_node(event.target)

    # -- reporting ---------------------------------------------------------------------

    def summary(self) -> dict:
        """Fired-event counts for benchmark artifacts."""
        counts: dict[str, int] = {}
        for kind, _target, _at in self.fired:
            counts[kind] = counts.get(kind, 0) + 1
        return {"fired": len(self.fired), "counts": counts, "plan": self.plan.describe()}


class ChaosCheckpointStore(CheckpointStore):
    """Checkpoint-store decorator that fails during ``store_outage`` windows.

    Reads, writes and compaction (``delete_below``) raise
    :class:`StorageError` while a window is active; read-only metadata
    (``steps``) and the truncation a flush makes (``delete_from``) are left
    working so recovery bookkeeping does not wedge on an outage it can survive.
    """

    def __init__(self, store: CheckpointStore, engine: ChaosEngine) -> None:
        self._store = store
        self._engine = engine

    def _check(self, op: str) -> None:
        if self._engine.store_outage_active():
            raise StorageError(f"chaos store_outage: {op} rejected")

    def save(self, namespace: str, step: int, payload: Any) -> None:
        self._check("save")
        self._store.save(namespace, step, payload)

    def save_many(self, entries: list[tuple[str, int, Any]]) -> None:
        self._check("save_many")
        self._store.save_many(entries)

    def load(self, namespace: str, step: int) -> Any | None:
        self._check("load")
        return self._store.load(namespace, step)

    def load_latest(self, namespace: str, max_step: int | None = None):
        self._check("load_latest")
        return self._store.load_latest(namespace, max_step)

    def steps(self, namespace: str) -> list[int]:
        return self._store.steps(namespace)

    def delete_from(self, namespace: str, step: int) -> int:
        return self._store.delete_from(namespace, step)

    def delete_below(self, namespace: str, step: int) -> int:
        self._check("delete_below")
        return self._store.delete_below(namespace, step)

    def clear(self) -> None:
        self._store.clear()
