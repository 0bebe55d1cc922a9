"""Loading and scaling plan datatypes exchanged between Planner and actors.

A :class:`LoadingPlan` is the Planner's output for one training step: which
samples each Source Loader must prepare, how they are grouped into
microbatches per consumer bucket, and which trainer clients fetch versus
receive broadcasts; plan history keeps only its :class:`PlanRecord`.  A
:class:`ScalingPlan` is the AutoScaler's resource adjustment directive.

A module plan holds its samples as one column set in bin order plus the bins'
row offsets: planning takes a :class:`~repro.core.columns.SampleColumns` and
gives one, and no metadata record is built from either.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from repro.core.columns import SampleColumns
from repro.errors import PlanError
from repro.training.flops import TokenBins


@dataclass
class ModulePlan:
    """The per-module part of a loading plan (e.g. 'backbone' or 'encoder').

    ``rows`` holds the module's samples in bin order: bucket first, then
    microbatch, every bucket with ``num_microbatches`` bins (some possibly
    empty).  Bin ``k`` (bucket ``k // num_microbatches``, microbatch
    ``k % num_microbatches``) is ``rows[offsets[k]:offsets[k + 1]]`` with
    estimated cost ``estimated_costs[k]``, so a bucket is one contiguous range
    of rows.
    """

    module: str
    axis: str
    num_buckets: int
    num_microbatches: int
    rows: SampleColumns
    offsets: list[int]
    estimated_costs: list[float]
    balance_method: str = "none"

    def bucket_offsets(self, bucket_index: int) -> list[int]:
        """The ``num_microbatches + 1`` row offsets of a bucket's bins: its
        microbatch ``m`` is ``rows[o[m]:o[m + 1]]``."""
        if not 0 <= bucket_index < self.num_buckets:
            raise PlanError(f"module {self.module!r}: bucket {bucket_index} out of range")
        first = bucket_index * self.num_microbatches
        return self.offsets[first : first + self.num_microbatches + 1]

    def token_bins(self) -> TokenBins:
        """The fused- and image-token columns in bin order plus the bin
        offsets, which the training simulator reads."""
        return TokenBins(
            self.rows.total_tokens,
            self.rows.image_tokens,
            self.offsets,
            self.num_buckets,
            self.num_microbatches,
        )

    def validate(self) -> None:
        """The bins tile ``rows`` in order and no bin holds a sample twice
        (one sample may sit in two bins of a module)."""
        num_bins = self.num_buckets * self.num_microbatches
        offsets = np.asarray(self.offsets, dtype=np.int64)
        sizes = np.diff(offsets)
        if (
            len(offsets) != num_bins + 1
            or len(self.estimated_costs) != num_bins
            or offsets[0] != 0
            or offsets[-1] != len(self.rows)
            or (sizes < 0).any()
        ):
            raise PlanError(
                f"module {self.module!r}: offsets {self.offsets} do not cut its "
                f"{len(self.rows)} rows into {self.num_buckets} x {self.num_microbatches} bins"
            )
        bin_of = np.repeat(np.arange(num_bins), sizes)
        order = np.lexsort((self.rows.sample_ids, bin_of))
        ids, bin_of = self.rows.sample_ids[order], bin_of[order]
        repeated = np.flatnonzero((ids[1:] == ids[:-1]) & (bin_of[1:] == bin_of[:-1]))
        if len(repeated):
            bin_ = divmod(int(bin_of[repeated[0]]), self.num_microbatches)
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
        assigned = np.concatenate(
            [module_plan.rows.sample_ids for module_plan in self.modules.values()]
            + [np.empty(0, dtype=np.int64)]
        )
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
        assigned = sum(len(module_plan.rows) for module_plan in self.modules.values())
        return 1024 + per_sample * (assigned + self.total_samples())

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
