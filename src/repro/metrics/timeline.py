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
from bisect import bisect_right
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


class Timeline:
    """Record of :class:`TimelineEvent` intervals.

    The default mode is append-only and keeps every event.  For long runs the
    opt-in **bounded mode** (``max_events=n``) retains only the ``n`` most
    recent events while keeping the aggregate views (:meth:`__len__`,
    :meth:`span`, :meth:`breakdown`, :meth:`total_duration`) exact via
    running counters, so timeline memory stops growing O(E) with executed
    events.  Pair it with ``aggregate_overlap=True`` to maintain an
    :class:`OverlapAggregator` online, which lets
    :meth:`OverlapLedger.from_timeline` rebuild the per-step hidden/exposed
    ledger even after the underlying events were evicted.
    """

    def __init__(
        self,
        max_events: int | None = None,
        aggregate_overlap: bool = False,
        trainer_component: str = "trainer",
    ) -> None:
        if max_events is not None and max_events < 1:
            raise ValueError("max_events must be >= 1 (or None for unbounded)")
        #: Retained events as ``(component, name, start, duration, metadata)``
        #: tuples — the engine appends one per executed call, and a tuple
        #: costs a fraction of a frozen dataclass; :meth:`events` builds the
        #: :class:`TimelineEvent` views on demand.
        self._events: deque[tuple[str, str, float, float, dict]] = deque(maxlen=max_events)
        #: Appends mutate several counters together; the wallclock backend
        #: records events from concurrent lane threads, so the update must be
        #: atomic (the virtual backend pays one uncontended acquire).
        self._lock = threading.Lock()
        self._max_events = max_events
        self._count = 0
        self._span = 0.0
        self._pair_totals: dict[tuple[str, str], float] = {}
        self.overlap_aggregator: OverlapAggregator | None = (
            OverlapAggregator(trainer_component=trainer_component)
            if aggregate_overlap
            else None
        )

    @property
    def max_events(self) -> int | None:
        return self._max_events

    @property
    def dropped_events(self) -> int:
        """How many recorded events have been evicted (0 in unbounded mode)."""
        return self._count - len(self._events)

    def record(
        self,
        component: str,
        name: str,
        start: float,
        duration: float,
        **metadata: object,
    ) -> None:
        """Append an event (read it back through :meth:`events`)."""
        if duration < 0:
            raise ValueError(f"negative duration {duration} for event {name!r}")
        self._append(component, name, float(start), float(duration), metadata)

    def _append(
        self, component: str, name: str, start: float, duration: float, metadata: dict
    ) -> None:
        with self._lock:
            self._events.append((component, name, start, duration, metadata))
            self._count += 1
            end = start + duration
            if end > self._span:
                self._span = end
            pair = (component, name)
            self._pair_totals[pair] = self._pair_totals.get(pair, 0.0) + duration
            if self.overlap_aggregator is not None:
                self.overlap_aggregator.observe(component, name, start, duration, metadata)

    def events(
        self, component: str | None = None, name: str | None = None
    ) -> list[TimelineEvent]:
        """Events filtered by component and/or name (retained events only)."""
        # Copy first: a wallclock lane thread may append meanwhile.
        return [
            TimelineEvent(*fields)
            for fields in list(self._events)
            if (component is None or fields[0] == component)
            and (name is None or fields[1] == name)
        ]

    def total_duration(self, component: str | None = None, name: str | None = None) -> float:
        """Sum of durations for the selected events (exact in bounded mode)."""
        return sum(
            total
            for (event_component, event_name), total in self._pair_totals.items()
            if (component is None or event_component == component)
            and (name is None or event_name == name)
        )

    def span(self) -> float:
        """Latest event end time (the makespan of the timeline)."""
        return self._span

    def breakdown(self) -> dict[str, float]:
        """Total time attributed to each component (exact in bounded mode)."""
        totals: dict[str, float] = {}
        for (component, _), total in self._pair_totals.items():
            totals[component] = totals.get(component, 0.0) + total
        return totals

    def merge(self, other: "Timeline") -> None:
        """Fold ``other`` into this timeline.

        Retained events are re-appended (and feed this timeline's overlap
        aggregator, if any); if ``other`` already evicted events in bounded
        mode, their exact aggregate contributions (count, span, per-pair
        durations) are folded in from its running counters.  Overlap
        aggregation cannot see evicted events, so merging a bounded source
        into an aggregating destination only credits the retained window.
        """
        for fields in list(other._events):
            self._append(*fields)
        if other.dropped_events:
            self._count += other.dropped_events
            if other._span > self._span:
                self._span = other._span
            retained: dict[tuple[str, str], float] = {}
            for component, name, _, duration, _ in other._events:
                pair = (component, name)
                retained[pair] = retained.get(pair, 0.0) + duration
            for pair, total in other._pair_totals.items():
                evicted = total - retained.get(pair, 0.0)
                if evicted > 0.0:
                    self._pair_totals[pair] = self._pair_totals.get(pair, 0.0) + evicted

    def __len__(self) -> int:
        """Total events recorded (including any evicted in bounded mode)."""
        return self._count


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


class OverlapAggregator:
    """Online hidden/exposed accounting over a stream of timeline events.

    Maintains exactly the quantities :meth:`OverlapLedger.from_timeline`
    derives from a full event list — per-step data-plane busy time and the
    portion of it covered by trainer compute windows — without retaining the
    events themselves.  Memory is O(steps + in-flight events):

    - trainer windows are folded into a sorted list of *disjoint* intervals
      (back-to-back windows merge, so a mostly-busy trainer compresses to a
      handful of segments bounded by the number of stalls);
    - a data-plane event accumulates its overlap against existing windows on
      arrival and stays "open" only until the trainer window watermark passes
      its end — after that no future window can reach it (trainer windows are
      booked on a serialized actor, so their starts never decrease) and its
      contribution collapses into two per-step floats.
    """

    __slots__ = (
        "trainer_component",
        "data_roles",
        "exact",
        "_window_starts",
        "_window_ends",
        "_window_watermark",
        "_fetch_s",
        "_hidden_s",
        "_open",
    )

    def __init__(
        self,
        trainer_component: str = "trainer",
        data_roles: frozenset[str] = DATA_PLANE_ROLES,
    ) -> None:
        self.trainer_component = trainer_component
        self.data_roles = data_roles
        #: False once a trainer window arrived with a start *below* the
        #: watermark (possible only when foreign timelines are merged in —
        #: the engine books trainer windows in non-decreasing start order):
        #: already-finalized events may then under-credit hidden time, and
        #: consumers should prefer the event-based rebuild when they still
        #: have the events.
        self.exact = True
        self._window_starts: list[float] = []
        self._window_ends: list[float] = []
        #: Largest trainer-window start observed; events ending at or before
        #: it can never gain more coverage and are finalized.
        self._window_watermark = float("-inf")
        self._fetch_s: dict[int, float] = {}
        self._hidden_s: dict[int, float] = {}
        #: Open data events: [step, start, end, hidden-so-far] quadruples.
        self._open: list[list[float]] = []

    # -- ingestion ---------------------------------------------------------------

    def observe(
        self, component: str, name: str, start: float, duration: float, metadata: dict
    ) -> None:
        """Fold in one timeline event, given by its fields."""
        role = metadata.get("role")
        end = start + duration
        if component == self.trainer_component or role == "trainer":
            # consume_step markers book zero compute (their span is just the
            # RPC) — they are not windows work can hide behind.
            if name != "consume_step":
                self._add_window(start, end)
            return
        step = metadata.get("step")
        if step is None or role not in self.data_roles:
            return
        self._add_event(int(step), start, end, duration)

    def _add_window(self, start: float, end: float) -> None:
        new_segments = self._insert_window(start, end)
        if new_segments:
            for entry in self._open:
                event_start, event_end = entry[1], entry[2]
                covered = 0.0
                for seg_start, seg_end in new_segments:
                    covered += max(
                        0.0, min(event_end, seg_end) - max(event_start, seg_start)
                    )
                if covered > 0.0:
                    entry[3] += covered
        if start > self._window_watermark:
            self._window_watermark = start
            self._finalize_open()
        elif start < self._window_watermark:
            self.exact = False

    def _insert_window(self, start: float, end: float) -> list[tuple[float, float]]:
        """Union ``[start, end)`` into the disjoint window set.

        Returns the sub-intervals that were not previously covered (open
        events must only be credited for *new* coverage, so overlapping or
        duplicate trainer windows cannot double count).
        """
        if end <= start:
            return []
        starts, ends = self._window_starts, self._window_ends
        # First window that may overlap: the first whose end exceeds start.
        lo = bisect_right(ends, start)
        hi = lo
        segments: list[tuple[float, float]] = []
        cursor = start
        while hi < len(starts) and starts[hi] < end:
            if starts[hi] > cursor:
                segments.append((cursor, starts[hi]))
            cursor = max(cursor, ends[hi])
            hi += 1
        if cursor < end:
            segments.append((cursor, end))
        merged_start = min(start, starts[lo]) if lo < hi else start
        merged_end = max(end, ends[hi - 1]) if lo < hi else end
        starts[lo:hi] = [merged_start]
        ends[lo:hi] = [merged_end]
        return segments

    def _add_event(self, step: int, start: float, end: float, duration: float) -> None:
        self._fetch_s[step] = self._fetch_s.get(step, 0.0) + duration
        covered = self._coverage(start, end)
        if end <= self._window_watermark:
            if covered > 0.0:
                self._hidden_s[step] = self._hidden_s.get(step, 0.0) + covered
        else:
            self._open.append([step, start, end, covered])

    def _coverage(self, start: float, end: float) -> float:
        """Seconds of ``[start, end)`` covered by the disjoint window set."""
        if end <= start:
            return 0.0
        starts, ends = self._window_starts, self._window_ends
        index = bisect_right(ends, start)
        covered = 0.0
        while index < len(starts) and starts[index] < end:
            covered += min(end, ends[index]) - max(start, starts[index])
            index += 1
        return covered

    def _finalize_open(self) -> None:
        watermark = self._window_watermark
        still_open: list[list[float]] = []
        for entry in self._open:
            if entry[2] <= watermark:
                if entry[3] > 0.0:
                    step = int(entry[0])
                    self._hidden_s[step] = self._hidden_s.get(step, 0.0) + entry[3]
            else:
                still_open.append(entry)
        self._open = still_open

    # -- output ------------------------------------------------------------------

    def build_ledger(self) -> "OverlapLedger":
        """Materialise the per-step ledger accumulated so far."""
        pending_hidden: dict[int, float] = {}
        for entry in self._open:
            step = int(entry[0])
            pending_hidden[step] = pending_hidden.get(step, 0.0) + entry[3]
        ledger = OverlapLedger()
        for step in sorted(self._fetch_s):
            hidden = self._hidden_s.get(step, 0.0) + pending_hidden.get(step, 0.0)
            ledger.record(step, self._fetch_s[step], hidden)
        return ledger


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
    def from_timeline(
        cls,
        timeline: Timeline,
        trainer_component: str = "trainer",
        data_roles: frozenset[str] = DATA_PLANE_ROLES,
    ) -> "OverlapLedger":
        """Rebuild a ledger by measuring interval overlap on an event timeline.

        Every executed deferred call the actor runtime records carries its
        actor role and (for pipeline work) its step; trainer compute windows
        are the events of ``trainer_component``.  For each step this measures

        - ``fetch_s``: the summed *busy time* of the step's data-plane events
          (all loaders and constructors, RPC included — a busy-time view,
          unlike the critical-path component sum the framework records), and
        - ``hidden_s``: the portion of that busy time falling inside trainer
          compute windows.

        Only events tagged with a step participate, so depth-0 data-plane
        calls (issued inline: no event, no step) are excluded by construction.

        When the timeline maintains an :class:`OverlapAggregator` (bounded /
        aggregating mode) *configured with the same classification rules*,
        the ledger is rebuilt from the online aggregate — the retained event
        window may be incomplete, but the aggregate saw every recorded
        event.  Custom ``trainer_component``/``data_roles`` arguments that
        differ from the aggregator's configuration fall back to the
        event-based path (which only covers retained events).
        """
        aggregator = getattr(timeline, "overlap_aggregator", None)
        if (
            aggregator is not None
            and aggregator.trainer_component == trainer_component
            and aggregator.data_roles == data_roles
            # An inexact aggregate (out-of-order windows merged in) is only
            # used when events were already evicted — with the full event
            # list still at hand, the reference rebuild is strictly better.
            and (aggregator.exact or timeline.dropped_events > 0)
        ):
            return aggregator.build_ledger()
        windows: list[tuple[float, float]] = []
        per_step: dict[int, list[TimelineEvent]] = {}
        for event in timeline.events():
            role = event.metadata.get("role")
            if event.component == trainer_component or role == "trainer":
                # consume_step markers book zero compute (their span is just
                # the RPC) — they are not windows work can hide behind.
                if event.name != "consume_step":
                    windows.append((event.start, event.end))
                continue
            step = event.metadata.get("step")
            if step is None or role not in data_roles:
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
        actor: str,
        node: str | None = None,
        detail: str = "",
    ) -> FleetEvent:
        """Build and append one elasticity event from its fields."""
        return self.add_fleet_event(
            FleetEvent(
                kind=kind,
                step=int(step),
                at_s=float(at_s),
                source=source,
                actor=actor,
                node=node,
                detail=detail,
            )
        )

    def fleet_events(self, kind: str | None = None) -> list[FleetEvent]:
        if kind is None:
            return list(self._fleet_events)
        return [event for event in self._fleet_events if event.kind == kind]

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

    def records(self) -> list[FetchOverlap]:
        return list(self._records)

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
