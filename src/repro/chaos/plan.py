"""Declarative fault plans: typed fault events on the shared clock.

A :class:`FaultPlan` is a list of :class:`FaultEvent` entries scheduled at
virtual instants (``at_s`` in the shared clock's units, which are virtual
seconds on both backends — the wallclock backend reports virtual units too).
The :class:`~repro.chaos.engine.ChaosEngine` fires one-shot events the first
time the clock reaches them and keeps *windowed* events (stragglers, blips,
outages, blackouts) active for ``duration_s``.

Fault kinds (mirroring the failure classes of Sec. 6.1 plus the correlated
modes single-actor injection cannot express):

- ``actor_crash`` — one actor raises :class:`~repro.errors.ActorDead` on its
  next call and is marked failed (target = actor name).
- ``node_crash`` — every actor placed on the node is killed and its
  scheduler reservations are released (target = node name).
- ``straggler`` — modelled call durations of matching actors are multiplied
  by ``factor`` for the window (target = actor name or role, "" = all).
- ``gcs_blip`` — matching RPCs raise :class:`~repro.errors.ActorTimeout`
  for the window (target = actor name or role, "" = all actors).
- ``store_outage`` — checkpoint-store puts/gets raise
  :class:`~repro.errors.StorageError` for the window (see
  :meth:`~repro.chaos.engine.ChaosEngine.wrap_store`).
- ``source_blackout`` — every loader serving the source raises
  :class:`~repro.errors.ActorTimeout` for the window (target = source name);
  restarted replacements and mirrors are matched by their declared source,
  so recovery cannot sidestep the blackout.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import ConfigurationError

#: Every fault kind a plan may contain.  One-shot kinds fire exactly once;
#: windowed kinds stay active for ``duration_s`` after ``at_s``.
FAULT_KINDS = (
    "actor_crash",
    "node_crash",
    "straggler",
    "gcs_blip",
    "store_outage",
    "source_blackout",
)

#: Kinds that describe a window rather than an instant.
WINDOWED_KINDS = frozenset({"straggler", "gcs_blip", "store_outage", "source_blackout"})

#: Faults per :meth:`FaultPlan.random_storm` storm.
STORM_EVENTS = 4


@dataclass(frozen=True)
class FaultEvent:
    """One declarative fault, scheduled on the shared clock."""

    kind: str
    at_s: float
    #: Actor name, node name, role or source name depending on ``kind``;
    #: "" matches every candidate for the window kinds that allow it.
    target: str = ""
    #: Window length for :data:`WINDOWED_KINDS`; ignored by one-shot kinds.
    duration_s: float = 0.0
    #: Latency multiplier for ``straggler`` windows.
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.at_s < 0:
            raise ConfigurationError("fault at_s must be >= 0")
        if self.kind in WINDOWED_KINDS and self.duration_s <= 0:
            raise ConfigurationError(f"{self.kind} faults need duration_s > 0")
        if self.kind == "straggler" and self.factor <= 1.0:
            raise ConfigurationError("straggler factor must be > 1")
        if self.kind in ("actor_crash", "node_crash", "source_blackout") and not self.target:
            raise ConfigurationError(f"{self.kind} faults need an explicit target")

    @property
    def end_s(self) -> float:
        """The instant the fault stops acting (== ``at_s`` for one-shots)."""
        return self.at_s + (self.duration_s if self.kind in WINDOWED_KINDS else 0.0)


@dataclass
class FaultPlan:
    """An ordered storm of fault events driven by the chaos engine."""

    events: list[FaultEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.events = sorted(self.events, key=lambda e: (e.at_s, e.kind, e.target))

    def add(self, event: FaultEvent) -> "FaultPlan":
        self.events.append(event)
        self.events.sort(key=lambda e: (e.at_s, e.kind, e.target))
        return self

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    def horizon_s(self) -> float:
        """The last instant any event in the plan is still acting."""
        return max((event.end_s for event in self.events), default=0.0)

    def describe(self) -> dict:
        """JSON-friendly storm summary for benchmark artifacts."""
        return {
            "events": len(self.events),
            "counts": self.counts(),
            "horizon_s": self.horizon_s(),
        }

    @classmethod
    def random_storm(
        cls,
        seed: int,
        horizon_s: float,
        actors: list[str] | None = None,
        nodes: list[str] | None = None,
        sources: list[str] | None = None,
        roles: list[str] | None = None,
    ) -> "FaultPlan":
        """Seeded storm generator for soak runs and property tests.

        Draws :data:`STORM_EVENTS` faults from whichever kinds the provided target
        pools enable plus a store outage, with instants in the middle 10–85%
        of ``horizon_s`` and windows sized 3–12% of it.  Same seed → same
        storm, so soak failures reproduce exactly.
        """
        if horizon_s <= 0:
            raise ConfigurationError("random_storm needs horizon_s > 0")
        rng = random.Random(seed)
        kinds: list[str] = []
        if actors:
            kinds.append("actor_crash")
        if nodes:
            kinds.append("node_crash")
        if actors or roles:
            kinds.extend(["straggler", "gcs_blip"])
        if sources:
            kinds.append("source_blackout")
        kinds.append("store_outage")
        events: list[FaultEvent] = []
        for _ in range(STORM_EVENTS):
            kind = rng.choice(kinds)
            at_s = rng.uniform(0.10, 0.85) * horizon_s
            duration_s = rng.uniform(0.03, 0.12) * horizon_s
            if kind == "actor_crash":
                events.append(FaultEvent(kind, at_s, target=rng.choice(actors)))
            elif kind == "node_crash":
                events.append(FaultEvent(kind, at_s, target=rng.choice(nodes)))
            elif kind == "source_blackout":
                events.append(
                    FaultEvent(kind, at_s, target=rng.choice(sources), duration_s=duration_s)
                )
            elif kind == "store_outage":
                events.append(FaultEvent(kind, at_s, duration_s=duration_s))
            else:  # straggler / gcs_blip on an actor or a role
                pool = (actors or []) + (roles or [])
                target = rng.choice(pool)
                if kind == "straggler":
                    events.append(
                        FaultEvent(
                            kind,
                            at_s,
                            target=target,
                            duration_s=duration_s,
                            factor=rng.uniform(2.0, 8.0),
                        )
                    )
                else:
                    events.append(
                        FaultEvent(kind, at_s, target=target, duration_s=duration_s)
                    )
        return cls(events=events)
