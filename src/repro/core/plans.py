"""Loading and scaling plan datatypes exchanged between Planner and actors.

A :class:`LoadingPlan` is the Planner's output for one training step: which
samples each Source Loader must prepare, how they are grouped into
microbatches per consumer bucket, and which trainer clients fetch versus
receive broadcasts; plan history keeps only its :class:`PlanRecord`.  A
:class:`ScalingPlan` is the AutoScaler's resource adjustment directive.

An assignment holds its samples as columns (ids and token arrays); records are
built only when read (:attr:`MicrobatchAssignment.samples`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from repro.core.columns import SampleColumns
from repro.data.samples import SampleMetadata
from repro.errors import PlanError


@dataclass(frozen=True)
class MicrobatchAssignment:
    """Samples assigned to one microbatch of one consumer bucket."""

    bucket_index: int
    microbatch_index: int
    rows: SampleColumns
    estimated_cost: float = 0.0

    @property
    def samples(self) -> tuple[SampleMetadata, ...]:
        """The samples' records, built on demand."""
        return tuple(self.rows.to_list())

    def total_tokens(self) -> int:
        return int(self.rows.total_tokens.sum())

    def sample_ids(self) -> list[int]:
        return self.rows.sample_ids.tolist()


@dataclass
class ModulePlan:
    """The per-module part of a loading plan (e.g. 'backbone' or 'encoder')."""

    module: str
    axis: str
    num_buckets: int
    num_microbatches: int
    assignments: list[MicrobatchAssignment] = field(default_factory=list, init=False)
    balance_method: str = "none"

    def bucket_assignments(self, bucket_index: int) -> list[MicrobatchAssignment]:
        return sorted(
            (a for a in self.assignments if a.bucket_index == bucket_index),
            key=lambda a: a.microbatch_index,
        )

    def bucket_samples(self) -> list[list[list[SampleMetadata]]]:
        """Per bucket, its microbatches' sample records (padded to
        ``num_microbatches``), built on demand."""
        return [[rows.to_list() for rows in bucket] for bucket in self._bucket_rows()]

    def bucket_tokens(self) -> list[list[tuple[np.ndarray, np.ndarray]]]:
        """:meth:`bucket_samples` as the fused- and image-token arrays the
        training simulator reads."""
        return [
            [(rows.total_tokens, rows.image_tokens) for rows in bucket]
            for bucket in self._bucket_rows()
        ]

    def _bucket_rows(self) -> list[list[SampleColumns]]:
        buckets = [[a.rows for a in self.bucket_assignments(b)] for b in range(self.num_buckets)]
        padding = [SampleColumns.empty()] * self.num_microbatches
        return [bucket + padding[len(bucket):] for bucket in buckets]

    def validate(self) -> None:
        seen: dict[tuple[int, int], set[int]] = {}
        for assignment in self.assignments:
            if not (0 <= assignment.bucket_index < self.num_buckets):
                raise PlanError(
                    f"module {self.module!r}: bucket {assignment.bucket_index} out of range"
                )
            if not (0 <= assignment.microbatch_index < self.num_microbatches):
                raise PlanError(
                    f"module {self.module!r}: microbatch {assignment.microbatch_index} out of range"
                )
            bin_ = (assignment.bucket_index, assignment.microbatch_index)
            ids = assignment.sample_ids()
            bin_ids = seen.setdefault(bin_, set())
            expected = len(bin_ids) + len(ids)
            bin_ids.update(ids)
            if len(bin_ids) != expected:
                raise PlanError(f"module {self.module!r}: a sample is assigned twice to bin {bin_}")


@dataclass
class LoadingPlan:
    """The Planner's directive for one training step."""

    step: int
    #: Source name -> sample ids that source's loader must prepare and stage.
    source_demands: dict[str, list[int]] = field(default_factory=dict)
    #: Module name (e.g. "backbone", "encoder") -> its assignment plan.
    modules: dict[str, ModulePlan] = field(default_factory=dict)
    #: Trainer ranks that fetch data (others receive trainer-side broadcasts).
    fetching_ranks: list[int] = field(default_factory=list)
    #: Sampling weights used for this step (recorded for replay / autoscaling).
    mixture_weights: dict[str, float] = field(default_factory=dict)
    #: Optional resource scaling directive piggybacked on the plan.
    scaling: "ScalingPlan | None" = None

    def module(self, name: str) -> ModulePlan:
        try:
            return self.modules[name]
        except KeyError:
            raise PlanError(f"plan for step {self.step} has no module {name!r}") from None

    def total_samples(self) -> int:
        return sum(len(ids) for ids in self.source_demands.values())

    def validate(self) -> None:
        """Every assigned sample is among the source demands (each module plan
        was validated where it was built, :meth:`ModulePlan.validate`)."""
        assigned = np.concatenate([
            assignment.rows.sample_ids
            for module_plan in self.modules.values()
            for assignment in module_plan.assignments
        ] + [np.empty(0, dtype=np.int64)])
        demanded = np.fromiter(chain.from_iterable(self.source_demands.values()), dtype=np.int64)
        demanded = np.append(np.sort(demanded), np.iinfo(np.int64).max)  # past every id
        outside = demanded[np.searchsorted(demanded, assigned)] != assigned
        if outside.any():
            missing = np.unique(assigned[outside])
            raise PlanError(
                f"plan step {self.step}: {len(missing)} assigned samples missing from source demands"
            )

    def metadata_bytes(self) -> int:
        """Approximate size of the plan when broadcast to actors."""
        per_sample = 48
        assignments = sum(
            len(assignment.rows)
            for module_plan in self.modules.values()
            for assignment in module_plan.assignments
        )
        return 1024 + per_sample * (assignments + self.total_samples())

    def record(self) -> "PlanRecord":
        """The compact form plan history keeps of this plan."""
        demands = {source: tuple(ids) for source, ids in self.source_demands.items()}
        return PlanRecord(self.step, demands, dict(self.mixture_weights), self.scaling)


@dataclass(frozen=True, slots=True)
class PlanRecord:
    """What replay reads of a plan, the form the Planner's history keeps.

    The window, the persist backlog, the ``planner/plans`` rows and the
    ``run`` entry hold these: no modules, no sample metadata.  Demands are
    tuples, so a record never aliases the live plan's lists.
    """

    step: int
    source_demands: dict[str, tuple[int, ...]]
    mixture_weights: dict[str, float]
    scaling: "ScalingPlan | None" = None


@dataclass(frozen=True)
class LoaderScalingDirective:
    """Target actor/worker counts for one source."""

    source: str
    target_actors: int
    target_workers_per_actor: int
    reason: str = ""


@dataclass
class ScalingPlan:
    """A set of per-source scaling directives issued by the AutoScaler."""

    step: int
    directives: list[LoaderScalingDirective] = field(default_factory=list)

    def is_empty(self) -> bool:
        return not self.directives

    def total_workers(self) -> int:
        return sum(d.target_actors * d.target_workers_per_actor for d in self.directives)
