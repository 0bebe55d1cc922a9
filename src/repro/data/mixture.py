"""Data mixture schedules: static, staged/curriculum and warm-up.

A :class:`MixtureSchedule` maps a training step to per-source sampling
weights.  The Planner consults the schedule every step; the AutoScaler
monitors the moving average of the weights to drive mixture-driven scaling
(Sec. 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import MixtureError


def _normalize(weights: dict[str, float]) -> dict[str, float]:
    cleaned = {name: float(weight) for name, weight in weights.items()}
    for name, weight in cleaned.items():
        if weight < 0:
            raise MixtureError(f"negative mixing weight for source {name!r}: {weight}")
    total = sum(cleaned.values())
    if total <= 0:
        raise MixtureError("mixture weights must have a positive sum")
    return {name: weight / total for name, weight in cleaned.items()}


@dataclass(frozen=True)
class MixturePhase:
    """One phase of a staged schedule: weights active from ``start_step`` on."""

    start_step: int
    weights: dict[str, float]

    def __post_init__(self) -> None:
        if self.start_step < 0:
            raise MixtureError("phase start_step must be >= 0")
        object.__setattr__(self, "weights", _normalize(self.weights))


class MixtureSchedule:
    """Maps a training step to normalized per-source sampling weights.

    Construction helpers cover the paper's use cases:

    - :meth:`static` — fixed weights for the whole run.
    - :meth:`staged` — curriculum-style phases that switch at given steps.
    - :meth:`warmup` — linearly interpolate from an initial mix to a final mix.

    Any other policy is a custom ``weight_fn(step)`` passed to the constructor.
    """

    def __init__(
        self,
        weight_fn: Callable[[int], dict[str, float]],
        source_names: list[str],
        description: str = "custom",
    ) -> None:
        if not source_names:
            raise MixtureError("a mixture needs at least one source")
        self._weight_fn = weight_fn
        self._source_names = list(source_names)
        self.description = description
        #: Construction recipe set by the serializable classmethod builders
        #: (static/uniform/staged/warmup); lets a durable checkpoint rebuild
        #: the schedule without pickling the weight closure.  ``None`` for
        #: custom schedules.
        self._recipe: tuple | None = None
        # Per-step memo: the Planner evaluates weights_at(step) several times
        # per step (DGraph.mix, the AutoScaler's moving average window), and
        # staged/warmup weight functions re-normalise on every call.  Weights
        # are a pure function of the step for one schedule instance, so a
        # small step-keyed memo is safe; swapping schedules at runtime
        # (``set_mixture``) installs a new instance and thus a fresh memo.
        self._weights_memo: dict[int, dict[str, float]] = {}

    # -- constructors ----------------------------------------------------------

    @classmethod
    def static(cls, weights: dict[str, float]) -> "MixtureSchedule":
        normalized = _normalize(weights)
        schedule = cls(lambda step: normalized, list(normalized), description="static")
        schedule._recipe = ("static", dict(weights))
        return schedule

    @classmethod
    def uniform(cls, source_names: list[str]) -> "MixtureSchedule":
        if not source_names:
            raise MixtureError("uniform mixture needs at least one source")
        weight = 1.0 / len(source_names)
        weights = {name: weight for name in source_names}
        schedule = cls(lambda step: weights, list(source_names), description="uniform")
        schedule._recipe = ("uniform", list(source_names))
        return schedule

    @classmethod
    def staged(cls, phases: list[MixturePhase]) -> "MixtureSchedule":
        if not phases:
            raise MixtureError("a staged schedule needs at least one phase")
        ordered = sorted(phases, key=lambda phase: phase.start_step)
        if ordered[0].start_step != 0:
            raise MixtureError("the first phase must start at step 0")
        names = sorted({name for phase in ordered for name in phase.weights})

        def weight_fn(step: int) -> dict[str, float]:
            active = ordered[0]
            for phase in ordered:
                if phase.start_step <= step:
                    active = phase
                else:
                    break
            return {name: active.weights.get(name, 0.0) for name in names}

        schedule = cls(weight_fn, names, description=f"staged[{len(ordered)} phases]")
        schedule._recipe = (
            "staged",
            [(phase.start_step, dict(phase.weights)) for phase in ordered],
        )
        return schedule

    @classmethod
    def warmup(
        cls, initial: dict[str, float], final: dict[str, float], warmup_steps: int
    ) -> "MixtureSchedule":
        if warmup_steps <= 0:
            raise MixtureError("warmup_steps must be positive")
        initial_n = _normalize(initial)
        final_n = _normalize(final)
        names = sorted(set(initial_n) | set(final_n))

        def weight_fn(step: int) -> dict[str, float]:
            alpha = min(1.0, step / warmup_steps)
            blended = {
                name: (1 - alpha) * initial_n.get(name, 0.0) + alpha * final_n.get(name, 0.0)
                for name in names
            }
            return _normalize(blended)

        schedule = cls(weight_fn, names, description=f"warmup[{warmup_steps} steps]")
        schedule._recipe = ("warmup", dict(initial), dict(final), warmup_steps)
        return schedule

    # -- checkpointing ---------------------------------------------------------

    def descriptor(self) -> dict | None:
        """Plain-data construction recipe, or ``None`` when not serializable.

        Schedules built via :meth:`static` / :meth:`uniform` / :meth:`staged` /
        :meth:`warmup` are pure functions of plain data and round-trip through
        a durable checkpoint; custom schedules close over user callbacks and
        cannot (callers keep the job-spec schedule instead).
        """
        if self._recipe is None:
            return None
        return {"recipe": self._recipe, "description": self.description}

    @classmethod
    def from_descriptor(cls, descriptor: dict) -> "MixtureSchedule":
        """Rebuild a schedule saved by :meth:`descriptor`."""
        recipe = descriptor["recipe"]
        kind = recipe[0]
        if kind == "static":
            return cls.static(recipe[1])
        if kind == "uniform":
            return cls.uniform(recipe[1])
        if kind == "staged":
            return cls.staged(
                [MixturePhase(start_step=start, weights=weights) for start, weights in recipe[1]]
            )
        if kind == "warmup":
            return cls.warmup(recipe[1], recipe[2], recipe[3])
        raise MixtureError(f"unknown mixture descriptor kind {kind!r}")

    # -- queries ---------------------------------------------------------------

    @property
    def source_names(self) -> list[str]:
        return list(self._source_names)

    def weights_at(self, step: int) -> dict[str, float]:
        """Normalized weights for ``step`` (unknown sources get weight 0).

        Memoized per step (callers receive a fresh copy, so mutating the
        returned dict cannot poison the memo); the memo is cleared once it
        grows past a small bound to keep long runs flat in memory.
        """
        if step < 0:
            raise MixtureError("step must be >= 0")
        cached = self._weights_memo.get(step)
        if cached is None:
            weights = self._weight_fn(step)
            full = {name: float(weights.get(name, 0.0)) for name in self._source_names}
            cached = _normalize(full) if sum(full.values()) > 0 else full
            if len(self._weights_memo) >= 256:
                self._weights_memo.clear()
            self._weights_memo[step] = cached
        return dict(cached)

    def invalidate_weights_from(self, step: int) -> None:
        """Drop memoized weights for steps ``>= step``.

        For schedules whose weight function consults mutable controller
        state (degraded-mode catch-up): when in-flight steps are flushed and
        re-planned, their weights must be recomputed against the rewound
        state, not served from the memo.
        """
        for memoized in [s for s in self._weights_memo if s >= step]:
            del self._weights_memo[memoized]

    def moving_average(self, step: int, window: int = 10) -> dict[str, float]:
        """Average weights over the trailing ``window`` steps (AutoScaler signal)."""
        if window <= 0:
            raise MixtureError("window must be positive")
        start = max(0, step - window + 1)
        accumulator = {name: 0.0 for name in self._source_names}
        steps = list(range(start, step + 1))
        for past_step in steps:
            for name, weight in self.weights_at(past_step).items():
                accumulator[name] += weight
        return {name: value / len(steps) for name, value in accumulator.items()}
