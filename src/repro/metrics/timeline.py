"""Event timelines for the discrete-event simulator and breakdown figures.

Besides the generic :class:`Timeline`, this module provides the
:class:`OverlapLedger` used by the virtual-clock co-simulation to account how
much of each step's data-preparation latency was *hidden* behind training
compute versus *exposed* on the iteration critical path (the Fig. 15
"data time fully masked" claim, made measurable).  Hidden/exposed time is
measured, not estimated: the framework records per-step trainer stalls
observed on the shared clock, and :meth:`OverlapLedger.from_timeline` can
independently rebuild the ledger by intersecting the recorded data-plane
event intervals with the trainer's compute windows.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class TimelineEvent:
    """A named interval attributed to a component (Fig. 14 / Fig. 15 style)."""

    component: str
    name: str
    start: float
    duration: float
    metadata: dict = field(default_factory=dict, compare=False, hash=False)

    @property
    def end(self) -> float:
        return self.start + self.duration


#: How many events the actor system's run timeline keeps: the newest, so a
#: run of any length holds a fixed number of them.
TIMELINE_WINDOW = 2048


class Timeline:
    """:class:`TimelineEvent` intervals, the newest ``window`` of them.

    The engine appends one event per executed call through :meth:`record`;
    :meth:`events` and ``len`` read the retained events.  A run-long
    timeline (the actor system's) passes ``window=TIMELINE_WINDOW``, so
    appending past it evicts the oldest; ``None`` keeps every event, for a
    timeline whose size the job fixes (one iteration's microbatches).
    """

    def __init__(self, window: int | None = None) -> None:
        #: Events as ``(component, name, start, duration, role, step, metadata)``
        #: tuples, ``metadata`` ``None`` when there is none besides the role
        #: and step: a tuple costs a fraction of a frozen dataclass and a
        #: dict, so :meth:`events` builds the :class:`TimelineEvent` views on
        #: demand.
        self._events: deque[tuple] = deque(maxlen=window)
        #: The wallclock backend records events from concurrent lane threads.
        self._lock = threading.Lock()

    def record(
        self,
        component: str,
        name: str,
        start: float,
        duration: float,
        role: str | None = None,
        step: int | None = None,
        **metadata: object,
    ) -> None:
        """Append an event (read it back through :meth:`events`); a ``role``
        or ``step`` given is read back as that metadata key."""
        if duration < 0:
            raise ValueError(f"negative duration {duration} for event {name!r}")
        event = (component, name, float(start), float(duration), role, step, metadata or None)
        with self._lock:
            self._events.append(event)

    def events(
        self, component: str | None = None, name: str | None = None
    ) -> list[TimelineEvent]:
        """Retained events, oldest first, filtered by component and/or name."""
        with self._lock:
            retained = list(self._events)
        events = []
        for event_component, event_name, start, duration, role, step, extra in retained:
            if (component is None or event_component == component) and (
                name is None or event_name == name
            ):
                metadata = {} if role is None else {"role": role}
                if step is not None:
                    metadata["step"] = step
                if extra:
                    metadata.update(extra)
                events.append(TimelineEvent(event_component, event_name, start, duration, metadata))
        return events

    def __len__(self) -> int:
        return len(self._events)


@dataclass(frozen=True)
class FetchOverlap:
    """Per-step accounting of data-fetch latency versus prefetch overlap.

    ``stall_s`` is the *measured* trainer wait on the virtual clock: how long
    the trainer sat idle between finishing its previous iteration and the
    step's data becoming available.  It can exceed ``fetch_s`` (the step's
    own component latencies) when the step queued behind earlier data-plane
    work; ``exposed_s`` is the stall clamped to the step's fetch latency so
    ``hidden_s + exposed_s == fetch_s`` always holds.
    """

    step: int
    fetch_s: float
    hidden_s: float
    stall_s: float = 0.0

    @property
    def exposed_s(self) -> float:
        """The portion of the fetch latency left on the critical path."""
        return max(0.0, self.fetch_s - self.hidden_s)


#: Actor roles whose timeline events count as data-plane work.
DATA_PLANE_ROLES = frozenset({"planner", "source_loader", "data_constructor"})

#: Role tag for fleet-lifecycle timeline events (spawn / retire / placement
#: rejection / worker resize / mirror promotion).  Deliberately outside
#: :data:`DATA_PLANE_ROLES` and distinct from the trainer component, so
#: elasticity markers never perturb hidden/exposed reconciliation: they are
#: neither busy data time nor compute windows work could hide behind.
FLEET_ROLE = "fleet"

#: Every fleet mutation kind the ledger accepts.  ``degrade`` / ``restore``
#: mark the data plane dropping a source from the mixture (all loaders
#: unreachable) and readmitting it once its loaders answer heartbeats again.
FLEET_EVENT_KINDS = frozenset(
    {"spawn", "retire", "reject", "resize", "promote", "degrade", "restore"}
)


@dataclass(frozen=True)
class FleetEvent:
    """One loader-fleet mutation, recorded in the ledger's elasticity section."""

    kind: str  # one of FLEET_EVENT_KINDS
    step: int
    at_s: float
    source: str
    actor: str
    node: str | None = None
    detail: str = ""


class OverlapLedger:
    """Append-only record of per-step :class:`FetchOverlap` entries.

    Besides the per-step hidden/exposed records, the ledger keeps an
    **elasticity section**: the fleet-size changes (loader spawns, retires,
    rejected placements) that happened during the run, stamped with their
    step and virtual-clock instant.  Hidden/exposed reconciliation is
    unaffected by fleet changes — ``hidden + exposed == fetch`` holds per
    step whatever the fleet size — but the section lets reports and
    benchmarks correlate stall movement with scaling activity.

    Multi-tenant runs tag each job's ledger with its ``tenant`` namespace so
    per-tenant stall/hidden/exposed reports stay attributable after
    aggregation across a shared data plane.
    """

    def __init__(self, tenant: str | None = None) -> None:
        self.tenant = tenant
        self._records: list[FetchOverlap] = []
        self._fleet_events: list[FleetEvent] = []

    def record(
        self, step: int, fetch_s: float, hidden_s: float, stall_s: float | None = None
    ) -> FetchOverlap:
        if fetch_s < 0:
            raise ValueError(f"negative fetch time {fetch_s} for step {step}")
        hidden = max(0.0, min(float(hidden_s), float(fetch_s)))
        entry = FetchOverlap(
            step=step,
            fetch_s=float(fetch_s),
            hidden_s=hidden,
            stall_s=max(0.0, float(fetch_s) - hidden) if stall_s is None else float(stall_s),
        )
        self._records.append(entry)
        return entry

    @classmethod
    def from_timeline(cls, timeline: Timeline) -> "OverlapLedger":
        """Rebuild a ledger by measuring interval overlap on an event timeline.

        Every executed deferred call the actor runtime records carries its
        actor role and (for pipeline work) its step; trainer compute windows
        are the events of the ``"trainer"`` component.  For each step this
        measures

        - ``fetch_s``: the summed *busy time* of the step's data-plane events
          (all loaders and constructors, RPC included — a busy-time view,
          unlike the critical-path component sum the framework records), and
        - ``hidden_s``: the portion of that busy time falling inside trainer
          compute windows.

        Only events tagged with a step participate, so depth-0 data-plane
        calls (issued inline: no event, no step) are excluded by construction.
        """
        windows: list[tuple[float, float]] = []
        per_step: dict[int, list[TimelineEvent]] = {}
        for event in timeline.events():
            role = event.metadata.get("role")
            if event.component == "trainer" or role == "trainer":
                # consume_step markers book zero compute (their span is just
                # the RPC) — they are not windows work can hide behind.
                if event.name != "consume_step":
                    windows.append((event.start, event.end))
                continue
            step = event.metadata.get("step")
            if step is None or role not in DATA_PLANE_ROLES:
                continue
            per_step.setdefault(int(step), []).append(event)

        ledger = cls()
        for step in sorted(per_step):
            events = per_step[step]
            fetch = sum(event.duration for event in events)
            hidden = sum(_window_overlap_s(event, windows) for event in events)
            ledger.record(step, fetch, hidden)
        return ledger

    def add_fleet_event(self, event: FleetEvent) -> FleetEvent:
        """Append one elasticity event as-is.

        The loader fleet emits :class:`FleetEvent` records directly, so the
        ledger stores the same objects — one dataclass, no field copying.
        """
        if event.kind not in FLEET_EVENT_KINDS:
            raise ValueError(f"unknown fleet event kind {event.kind!r}")
        self._fleet_events.append(event)
        return event

    def record_fleet_event(
        self,
        kind: str,
        step: int,
        at_s: float,
        source: str,
        detail: str = "",
    ) -> FleetEvent:
        """Build and append one source-level event (no actor, no node) from its fields."""
        return self.add_fleet_event(
            FleetEvent(
                kind=kind,
                step=int(step),
                at_s=float(at_s),
                source=source,
                actor="",
                detail=detail,
            )
        )

    def fleet_events(self) -> list[FleetEvent]:
        return list(self._fleet_events)

    def elasticity_summary(self) -> dict[str, float]:
        """Per-kind fleet mutation counts plus the net fleet delta."""
        counts = {kind: 0 for kind in FLEET_EVENT_KINDS}
        for event in self._fleet_events:
            counts[event.kind] += 1
        return {
            "fleet_spawns": float(counts["spawn"]),
            "fleet_retires": float(counts["retire"]),
            "fleet_rejections": float(counts["reject"]),
            "fleet_resizes": float(counts["resize"]),
            "fleet_promotions": float(counts["promote"]),
            "fleet_net_delta": float(counts["spawn"] - counts["retire"]),
        }

    def fetch_total_s(self) -> float:
        return sum(entry.fetch_s for entry in self._records)

    def hidden_total_s(self) -> float:
        return sum(entry.hidden_s for entry in self._records)

    def exposed_total_s(self) -> float:
        return sum(entry.exposed_s for entry in self._records)

    def stall_total_s(self) -> float:
        """Total measured trainer wait (reconciles with virtual wall time)."""
        return sum(entry.stall_s for entry in self._records)

    def hidden_fraction(self) -> float:
        """Share of total data time hidden behind compute (0 when no data time)."""
        total = self.fetch_total_s()
        if total <= 0:
            return 0.0
        return self.hidden_total_s() / total

    def __len__(self) -> int:
        return len(self._records)


def _window_overlap_s(event: TimelineEvent, windows: list[tuple[float, float]]) -> float:
    """Seconds of ``event`` covered by the (non-overlapping) trainer windows."""
    covered = 0.0
    for start, end in windows:
        covered += max(0.0, min(event.end, end) - max(event.start, start))
    return min(covered, event.duration)
