"""Multisource AutoScaler: offline source auto-partitioning and online
mixture-driven scaling (Sec. 5).

The offline phase turns a heterogeneous source catalog into Source Loader
configurations (how many loader actors per source and how many workers per
actor) under a CPU/memory budget, in three stages: source clustering by
transformation cost, resource-level construction, and configuration
generation with memory feasibility adjustment.  The online phase watches the
mixture schedule's moving-average weights and issues :class:`ScalingPlan`
directives when a source's demand rises or falls persistently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.core.plans import LoaderScalingDirective, ScalingPlan
from repro.core.source_loader import WORKER_CONTEXT_BYTES
from repro.data.sources import DataSource, SourceCatalog
from repro.errors import ScalingError

#: Worker processes one loader actor hosts; a source needing more gets more actors.
MAX_WORKERS_PER_ACTOR = 8
#: Per-actor file-handle and cursor state charged against the memory budget.
PER_SOURCE_STATE_BYTES = 16 * 1024 * 1024
#: A source scales up once its moving-average weight reaches this multiple of
#: its fair share, and down once it falls to ``SCALE_DOWN_THRESHOLD`` of it.
SCALE_UP_THRESHOLD = 1.5
SCALE_DOWN_THRESHOLD = 0.5
#: Online scaling never grows one source past this many loader actors.
MAX_ACTORS_PER_SOURCE = 8


@dataclass(frozen=True)
class SourceLoaderConfig:
    """Resource configuration of the loaders serving one source."""

    source: str
    num_actors: int
    workers_per_actor: int
    cluster_index: int
    estimated_cost_s: float
    estimated_memory_bytes: int

    @property
    def total_workers(self) -> int:
        return self.num_actors * self.workers_per_actor


@dataclass
class PartitionPlan:
    """Output of the offline auto-partitioning phase."""

    configs: dict[str, SourceLoaderConfig] = field(default_factory=dict, init=False)
    num_clusters: int = 0
    worker_block_cores: float = 1.0
    notes: list[str] = field(default_factory=list, init=False)

    def config_for(self, source: str) -> SourceLoaderConfig:
        try:
            return self.configs[source]
        except KeyError:
            raise ScalingError(f"no partition config for source {source!r}") from None

    def total_actors(self) -> int:
        return sum(config.num_actors for config in self.configs.values())

    def total_workers(self) -> int:
        return sum(config.total_workers for config in self.configs.values())

    def total_memory_bytes(self) -> int:
        return sum(config.estimated_memory_bytes for config in self.configs.values())


@dataclass(frozen=True)
class ResourceBudget:
    """CPU and memory available to the preprocessing layer."""

    cpu_cores: float
    memory_bytes: int
    #: Cores held back for the Data Constructors and for the Planner.
    constructor_cores: ClassVar[float] = 4.0
    planner_cores: ClassVar[float] = 4.0

    def loader_cores(self) -> float:
        available = self.cpu_cores - self.constructor_cores - self.planner_cores
        if available <= 0:
            raise ScalingError(
                "resource budget leaves no CPU for source loaders after reserving "
                "constructor and planner cores"
            )
        return available


class SourceAutoPartitioner:
    """Offline multi-level source partitioning (Sec. 5.1)."""

    def __init__(
        self,
        num_clusters: int = 4,
        max_workers_per_source: int = 16,
    ) -> None:
        if num_clusters < 1:
            raise ScalingError("num_clusters must be >= 1")
        self.num_clusters = num_clusters
        self.max_workers_per_source = max_workers_per_source

    # -- public API ---------------------------------------------------------------------

    def partition(self, catalog: SourceCatalog, budget: ResourceBudget) -> PartitionPlan:
        """Produce loader configurations for every source in the catalog."""
        sources = catalog.sources()
        if not sources:
            raise ScalingError("cannot partition an empty source catalog")

        clusters = self._cluster_sources(sources)
        worker_targets = self._resource_levels(clusters, budget)
        plan = PartitionPlan(num_clusters=len(clusters))

        total_workers = max(1, sum(worker_targets[source.name] for source in sources))
        plan.worker_block_cores = budget.loader_cores() / total_workers

        for cluster_index, cluster in enumerate(clusters):
            for source in cluster:
                workers = worker_targets[source.name]
                config = self._configure_source(source, workers, cluster_index, budget, plan)
                plan.configs[source.name] = config
        self._enforce_memory(plan, budget)
        return plan

    # -- stage 1: source clustering --------------------------------------------------------

    def _cluster_sources(self, sources: list[DataSource]) -> list[list[DataSource]]:
        """Sort sources by descending transformation cost and split into G clusters."""
        ordered = sorted(sources, key=lambda s: s.expected_transform_latency(), reverse=True)
        clusters = min(self.num_clusters, len(ordered))
        per_cluster = math.ceil(len(ordered) / clusters)
        return [ordered[i * per_cluster : (i + 1) * per_cluster] for i in range(clusters) if ordered[i * per_cluster : (i + 1) * per_cluster]]

    # -- stage 2: resource level construction ------------------------------------------------

    def _resource_levels(
        self, clusters: list[list[DataSource]], budget: ResourceBudget
    ) -> dict[str, int]:
        """Per-source worker counts proportional to cluster mean cost."""
        cluster_means = [
            float(np.mean([s.expected_transform_latency() for s in cluster])) for cluster in clusters
        ]
        smallest = min(cluster_means)
        if smallest <= 0:
            smallest = 1e-9
        # The costliest cluster gets a worker multiple equal to the cost ratio
        # against the cheapest cluster, capped by the per-source bound.
        targets: dict[str, int] = {}
        for cluster, mean_cost in zip(clusters, cluster_means):
            ratio = mean_cost / smallest
            workers = max(1, min(self.max_workers_per_source, int(round(ratio))))
            for source in cluster:
                targets[source.name] = workers
        return targets

    # -- stage 3: configuration generation -----------------------------------------------------

    def _configure_source(
        self,
        source: DataSource,
        workers: int,
        cluster_index: int,
        budget: ResourceBudget,
        plan: PartitionPlan,
    ) -> SourceLoaderConfig:
        workers = max(1, min(workers, self.max_workers_per_source))
        num_actors = max(1, math.ceil(workers / MAX_WORKERS_PER_ACTOR))
        workers_per_actor = max(1, math.ceil(workers / num_actors))
        memory = self._estimate_memory(source, num_actors, workers_per_actor)
        return SourceLoaderConfig(
            source=source.name,
            num_actors=num_actors,
            workers_per_actor=workers_per_actor,
            cluster_index=cluster_index,
            estimated_cost_s=source.expected_transform_latency(),
            estimated_memory_bytes=memory,
        )

    def _estimate_memory(self, source: DataSource, num_actors: int, workers_per_actor: int) -> int:
        file_state = PER_SOURCE_STATE_BYTES * num_actors
        worker_state = WORKER_CONTEXT_BYTES * num_actors * workers_per_actor
        buffer_state = int(source.avg_raw_bytes * source.profile.memory_amplification * 64)
        return file_state + worker_state + buffer_state * num_actors

    def _enforce_memory(self, plan: PartitionPlan, budget: ResourceBudget) -> None:
        """Shrink actor counts until the plan fits the memory budget."""
        guard = 0
        while plan.total_memory_bytes() > budget.memory_bytes:
            guard += 1
            if guard > 10_000:
                raise ScalingError("memory budget is infeasible even with minimal loaders")
            heaviest = max(
                plan.configs.values(), key=lambda config: config.estimated_memory_bytes
            )
            if heaviest.num_actors <= 1 and heaviest.workers_per_actor <= 1:
                raise ScalingError(
                    f"source {heaviest.source!r} cannot fit the memory budget even with one worker"
                )
            if heaviest.workers_per_actor > 1:
                new_workers = heaviest.workers_per_actor - 1
                new_actors = heaviest.num_actors
            else:
                new_workers = heaviest.workers_per_actor
                new_actors = heaviest.num_actors - 1
            source_name = heaviest.source
            shrunk = SourceLoaderConfig(
                source=source_name,
                num_actors=new_actors,
                workers_per_actor=new_workers,
                cluster_index=heaviest.cluster_index,
                estimated_cost_s=heaviest.estimated_cost_s,
                estimated_memory_bytes=int(
                    heaviest.estimated_memory_bytes
                    * (new_actors * new_workers)
                    / max(1, heaviest.num_actors * heaviest.workers_per_actor)
                ),
            )
            plan.configs[source_name] = shrunk
            plan.notes.append(
                f"shrunk {source_name} to {new_actors} actors x {new_workers} workers for memory"
            )


@dataclass(frozen=True)
class ScalingDecision:
    """One issued scaling directive stamped with its virtual-clock instant."""

    step: int
    at_s: float | None
    directive: LoaderScalingDirective


class MixtureDrivenScaler:
    """Online scaling driven by the mixture schedule's moving-average weights.

    When the Planner passes the shared virtual clock's ``now_s`` into
    :meth:`observe`, decisions are stamped with the instant they landed, so
    the decision log places scaling on the co-simulated timeline. Decisions
    are not rate-limited: a directive fires on the observation that
    completes its streak.
    """

    def __init__(
        self,
        partition_plan: PartitionPlan,
        consecutive_intervals: int = 3,
        window: int = 10,
    ) -> None:
        if consecutive_intervals < 1:
            raise ScalingError("consecutive_intervals must be >= 1")
        self.plan = partition_plan
        self.consecutive_intervals = consecutive_intervals
        self.window = window
        num_sources = max(1, len(partition_plan.configs))
        self._baseline_weight = 1.0 / num_sources
        self._streaks: dict[str, int] = {}
        self._down_streaks: dict[str, int] = {}
        self._current_actors: dict[str, int] = {
            name: config.num_actors for name, config in partition_plan.configs.items()
        }
        self.rescale_events = 0
        self._last_observed_s: float | None = None
        self.decision_log: list[ScalingDecision] = []

    def current_actors(self, source: str) -> int:
        return self._current_actors.get(source, 1)

    def reconcile_actors(self, source: str, actual_actors: int) -> None:
        """Adopt the fleet's *actual* actor count for ``source``.

        The facade calls this when a directive could not be applied as issued
        — e.g. node CPU/memory budgets rejected the placement of a scale-up,
        or a scale-down was clamped at the canonical shard floor — so the
        scaler's view never drifts from the deployed fleet and later
        directives target real counts.
        """
        if actual_actors < 1:
            raise ScalingError("a source always keeps at least one loader actor")
        if source not in self.plan.configs:
            raise ScalingError(f"unknown source {source!r}")
        self._current_actors[source] = int(actual_actors)

    def observe(
        self,
        step: int,
        moving_average_weights: dict[str, float],
        now_s: float | None = None,
    ) -> ScalingPlan:
        """Consume one interval's moving-average weights; return directives.

        A source whose weight stays above ``SCALE_UP_THRESHOLD x`` its fair
        share for ``consecutive_intervals`` intervals gains an actor (up to
        ``MAX_ACTORS_PER_SOURCE``); one persistently below
        ``SCALE_DOWN_THRESHOLD x`` fair share gives an actor back (down to
        one).  ``now_s`` is the virtual-clock instant of the observation; it
        stamps the decisions it produces.
        """
        if now_s is not None:
            # The virtual clock is monotonic by construction; an observation
            # stamped earlier than one already consumed means the caller is
            # feeding instants out of order, which would silently corrupt the
            # decision log.
            if self._last_observed_s is not None and now_s < self._last_observed_s:
                raise ScalingError(
                    f"observation clock moved backwards: {now_s} < {self._last_observed_s}"
                )
            self._last_observed_s = now_s
        directives: list[LoaderScalingDirective] = []
        for source, config in self.plan.configs.items():
            weight = moving_average_weights.get(source, 0.0)
            fair = self._baseline_weight
            if weight >= SCALE_UP_THRESHOLD * fair:
                self._streaks[source] = self._streaks.get(source, 0) + 1
                self._down_streaks[source] = 0
            elif weight <= SCALE_DOWN_THRESHOLD * fair:
                self._down_streaks[source] = self._down_streaks.get(source, 0) + 1
                self._streaks[source] = 0
            else:
                self._streaks[source] = 0
                self._down_streaks[source] = 0

            current = self._current_actors.get(source, config.num_actors)
            if (
                self._streaks.get(source, 0) >= self.consecutive_intervals
                and current < MAX_ACTORS_PER_SOURCE
            ):
                self._current_actors[source] = current + 1
                self._streaks[source] = 0
                self.rescale_events += 1
                directives.append(
                    LoaderScalingDirective(
                        source=source,
                        target_actors=current + 1,
                        target_workers_per_actor=config.workers_per_actor,
                        reason=f"weight {weight:.3f} > {SCALE_UP_THRESHOLD}x fair share",
                    )
                )
            elif self._down_streaks.get(source, 0) >= self.consecutive_intervals and current > 1:
                self._current_actors[source] = current - 1
                self._down_streaks[source] = 0
                self.rescale_events += 1
                directives.append(
                    LoaderScalingDirective(
                        source=source,
                        target_actors=current - 1,
                        target_workers_per_actor=config.workers_per_actor,
                        reason=f"weight {weight:.3f} < {SCALE_DOWN_THRESHOLD}x fair share",
                    )
                )
        for directive in directives:
            self.decision_log.append(ScalingDecision(step=step, at_s=now_s, directive=directive))
        return ScalingPlan(step=step, directives=directives)
