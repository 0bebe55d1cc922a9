"""DGraph: the declarative, source-aware data orchestration abstraction.

A :class:`DGraph` is a stateful dataflow graph that tracks the lifecycle of
training samples through explicit producer-consumer relationships.  It is
initialised from the *buffer metadata* collected from Source Loaders, bound to
a :class:`~repro.core.place_tree.ClientPlaceTree` describing the trainer
topology, and manipulated through a small set of declarative primitives
(Sec. 4.2)::

    dgraph = DGraph.from_buffer_infos(buffer_infos, metas_token)
    dgraph.init(client_place_tree)
    dgraph.mix(schedule)
    dgraph.distribute(axis="DP")
    dgraph.cost(costfn)
    dgraph.balance(num_microbatches=8)
    dgraph.broadcast_at("TP")
    plan = dgraph.plan()

Only lightweight metadata flows through the graph; payload bytes never do.

Inside the graph the samples are one
:class:`~repro.core.columns.SampleColumns` (metadata lists are converted at
the door).  The Planner's gather hands over one run of rows per source, so
``mix`` draws over index ranges, O(sources + selected); ``cost``/``plan``
run as numpy index arithmetic, ``balance`` packs row positions by one cost
list aligned with the selection, each microbatch assignment is a slice of
it (no sample record is built), and the lineage graph is **lazy** — nodes
and state transitions are recorded as compact column-level operations and
only expanded into :class:`DGraphNode` objects when :attr:`nodes` or
:meth:`lineage` is actually consulted
(telemetry, debugging).  The hot planning path therefore allocates
O(selected) small objects instead of O(buffered).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Callable

import numpy as np

from repro.core.balancing import balance_positions, pack_in_order
from repro.core.columns import SampleColumns
from repro.core.place_tree import DISTRIBUTION_AXES, ClientPlaceTree
from repro.core.plans import MicrobatchAssignment, ModulePlan
from repro.data.mixture import MixtureSchedule
from repro.data.samples import SampleMetadata
from repro.errors import OrchestrationError
from repro.utils.rng import derive_rng

#: Signature of cost functions accepted by ``cost``/``balance``:
#: metadata -> (load cost, memory cost) or a bare float.
CostFnLike = Callable[[SampleMetadata], object]


# -- metadata selectors (the ``metas`` argument of from_buffer_infos) ------------


def metas_token(metadata: SampleMetadata) -> SampleMetadata | None:
    """Select every sample, viewed through its fused token sequence."""
    return metadata


def metas_image(metadata: SampleMetadata) -> SampleMetadata | None:
    """Select only samples carrying image tokens (the encoder's view)."""
    return metadata if metadata.image_tokens > 0 else None


# A selector that is a pure *filter* (returns the sample unchanged or None)
# can advertise a vectorized mask over SampleColumns; ``None`` means "select
# all".  Selectors without the attribute are evaluated per object.
metas_token.columns_mask = lambda columns: None
metas_image.columns_mask = lambda columns: columns.image_tokens > 0


def expected_quotas(weights: dict[str, float], target: int) -> dict[str, int]:
    """Per-source sample quota ``mix`` allocates when every buffer is ample.

    The same largest-remainder rounding as :meth:`DGraph._quota_per_source`
    minus the pool-size cap: with every buffer at least ``target`` deep, this
    is exactly what a plan's per-source demand counts come out to.  The
    degraded-mode controller uses it both to measure the deficit a blacked
    out source accrues and to verify that catch-up repaid it sample-exactly.
    Sources with non-positive weight get zero; ties in the remainder break
    by ``weights`` insertion order.
    """
    names = [name for name, weight in weights.items() if weight > 0.0]
    if not names or target <= 0:
        return {name: 0 for name in weights}
    probs = np.array([weights[name] for name in names], dtype=float)
    probs = probs / probs.sum()
    raw = probs * target
    quotas = np.floor(raw).astype(int)
    remainder = target - int(quotas.sum())
    if remainder > 0:
        fractional = raw - quotas
        order = np.argsort(-fractional, kind="stable")
        for index in order[:remainder]:
            quotas[index] += 1
    allocation = {name: 0 for name in weights}
    for name, quota in zip(names, quotas):
        allocation[name] = int(quota)
    return allocation


@dataclass
class DGraphNode:
    """One node: a sample in a specific processing state."""

    sample_id: int
    state: str
    source: str
    detail: dict = field(default_factory=dict)


@dataclass
class DGraphPlan:
    """The finalized output of :meth:`DGraph.plan`."""

    module: ModulePlan
    fetching_ranks: list[int]
    mixture_weights: dict[str, float]
    source_demands: dict[str, list[int]]
    subplan: dict[str, "DGraphPlan"] = field(default_factory=dict, init=False)
    api_costs: dict[str, float] = field(default_factory=dict)

    def all_source_demands(self) -> dict[str, list[int]]:
        """Source demands of this plan plus every subplan (sorted, deduplicated)."""
        runs_by_source: dict[str, list[list[int]]] = {}
        for plan in [self, *self.subplan.values()]:
            for source, ids in plan.source_demands.items():
                runs_by_source.setdefault(source, []).append(ids)
        return {source: sorted(set().union(*runs)) for source, runs in runs_by_source.items()}


class DGraph:
    """Stateful dataflow graph over buffered sample metadata."""

    def __init__(
        self,
        samples: list[SampleMetadata] | SampleColumns,
        module: str = "backbone",
    ) -> None:
        self.module = module
        self._nodes: dict[tuple[int, str], DGraphNode] = {}
        # Lazy lineage: compact column-level ops replayed into nodes
        # only when the lineage is actually inspected.
        self._lineage_ops: list[tuple] = []
        self._lineage_cursor = 0
        self._base_materialized = False

        self._columns = SampleColumns.coerce(samples)
        self._selected = self._columns

        self._tree: ClientPlaceTree | None = None
        self._mixture_weights: dict[str, float] = {}
        self._axis: str | None = None
        self._num_buckets: int | None = None
        self._cost_fn: CostFnLike | None = None
        #: Load cost per selected sample, aligned with ``_selected``.
        self._costs: list[float] = []
        #: Per bucket, per microbatch bin: row positions into ``_selected``
        #: and their summed cost.
        self._balance_result: list[list[tuple[list[int], float]]] | None = None
        self._balance_method = "none"
        self._num_microbatches = 1
        self._broadcast_dims: list[str] = []
        self._api_costs: dict[str, float] = {}
        self._step = 0
        self._seed = 0

    # -- construction -----------------------------------------------------------------

    @classmethod
    def from_buffer_infos(
        cls,
        buffer_infos: (
            dict[str, list[SampleMetadata] | SampleColumns]
            | list[SampleMetadata]
            | SampleColumns
        ),
        metas: Callable[[SampleMetadata], SampleMetadata | None] = metas_token,
        module: str = "backbone",
    ) -> "DGraph":
        """Create a DGraph from Source Loader buffer metadata.

        ``buffer_infos`` is either a mapping ``source name -> buffered sample
        metadata`` (as gathered by the Planner) or a flat collection.  ``metas``
        selects and re-views the metadata for this graph's module: e.g.
        :func:`metas_image` builds the encoder's view over the same shared
        buffer dictionary, giving the "unified multisource representation" of
        Sec. 4.1.

        Values may be metadata lists or :class:`SampleColumns` (the Planner's
        gather); either way the graph holds one concatenated column set.
        """
        columns = SampleColumns.coerce(buffer_infos)
        mask_fn = getattr(metas, "columns_mask", None)
        if mask_fn is not None:
            mask = mask_fn(columns)
            return cls(columns if mask is None else columns.where(mask), module=module)
        # Arbitrary (possibly transforming) selector: evaluate per object.
        viewed = [metas(sample) for sample in columns.to_list()]
        return cls([sample for sample in viewed if sample is not None], module=module)

    def init(self, tree: ClientPlaceTree) -> "DGraph":
        """Bind the graph to a trainer topology."""
        self._tree = tree
        return self

    def with_step(self, step: int, seed: int = 0) -> "DGraph":
        """Set the training step (used by the mixture schedule) and RNG seed."""
        self._step = int(step)
        self._seed = int(seed)
        return self

    # -- primitives ---------------------------------------------------------------------

    def mix(self, schedule: MixtureSchedule, sample_count: int | None = None) -> "DGraph":
        """Apply scheduled multisource sampling.

        Samples are drawn from the buffered metadata proportionally to the
        schedule's weights at the current step.  Sources absent from the
        buffer contribute nothing; only sampled data participates in
        subsequent orchestration (un-sampled nodes stay in ``buffered`` state).
        """
        columns = self._selected
        weights = schedule.weights_at(self._step)
        self._mixture_weights = dict(weights)

        available: list[tuple[str, int]] = []
        for code in columns.source_order():
            name = columns.sources[code]
            if weights.get(name, 0.0) > 0.0:
                available.append((name, code))
        if not available:
            raise OrchestrationError(
                "mixture schedule assigns zero weight to every buffered source"
            )
        total = len(columns)
        target = sample_count if sample_count is not None else total
        target = min(target, total)

        rng = derive_rng(self._seed, "mix", self._step)
        probs = np.array([weights[name] for name, _ in available], dtype=float)
        probs = probs / probs.sum()
        pools = columns.pool_positions()
        names = [name for name, _ in available]
        pool_sizes = {name: len(pools[code]) for name, code in available}
        quotas = self._quota_per_source(
            names, probs, pool_sizes, target, strict_target=sample_count is not None
        )

        chosen_parts: list[np.ndarray] = []
        runs: list[tuple[int, int, int]] = []
        start = 0
        for name, code in available:
            pool = pools[code]
            quota = quotas[name]
            if quota >= len(pool):
                chosen_parts.append(pool)
            else:
                indices = rng.choice(len(pool), size=quota, replace=False)
                chosen_parts.append(pool[np.sort(indices)])
            runs.append((code, start, start + len(chosen_parts[-1])))
            start = runs[-1][2]
        chosen = (
            np.concatenate(chosen_parts)
            if chosen_parts
            else np.empty(0, dtype=np.intp)
        )
        selected = columns.select(chosen, runs=runs)
        self._costs = [self._costs[position] for position in chosen.tolist()] if self._costs else []
        self._lineage_ops.append(("mix", selected.sample_ids))
        self._selected = selected
        return self

    def distribute(self, axis: str, group_size: int | None = None) -> "DGraph":
        """Choose the distribution axis (how many consumer buckets exist).

        ``axis='DP'`` creates one bucket per data-parallel group, ``'CP'``
        treats DPxCP GPUs as uniform consumers, ``'WORLD'`` gives every rank
        its own bucket (the encoder module).  ``group_size`` coarsens the
        bucket count to ``ceil(n / group_size)`` so balancing happens within
        subgroups, reducing coordination cost on very large clusters.
        """
        tree = self._require_tree()
        axis = axis.upper()
        if axis not in DISTRIBUTION_AXES:
            raise OrchestrationError(
                f"unknown distribution axis {axis!r}; expected one of {DISTRIBUTION_AXES}"
            )
        consumers = tree.num_consumers(axis)
        if group_size is not None:
            if group_size <= 0:
                raise OrchestrationError("group_size must be positive")
            consumers = math.ceil(consumers / group_size)
        self._axis = axis
        self._num_buckets = consumers
        return self

    def cost(self, costfn: CostFnLike) -> "DGraph":
        """Register a cost function mapping sample metadata to (load, memory).

        Costs are evaluated lazily over the currently selected samples and
        propagated automatically to the subsequent :meth:`balance` call.
        """
        self._cost_fn = costfn
        self._evaluate_costs()
        return self

    def balance(self, num_microbatches: int | None = None) -> "DGraph":
        """Distribute the selected samples into buckets and microbatch bins.

        The bucket count comes from the preceding :meth:`distribute`; each
        bucket is further divided into ``num_microbatches`` bins and greedy
        bin packing assigns samples so per-bin costs are as even as possible.
        """
        if self._num_buckets is None:
            raise OrchestrationError("call distribute() before balance()")
        if self._cost_fn is None:
            self.cost(lambda metadata: float(metadata.total_tokens))
        if num_microbatches is not None:
            if num_microbatches <= 0:
                raise OrchestrationError("num_microbatches must be positive")
            self._num_microbatches = num_microbatches

        costs = self._costs
        assignments: list[list[tuple[list[int], float]]] = []
        for bucket in balance_positions(costs, self._num_buckets):
            # A bucket's positions arrive in non-increasing cost order, the
            # order greedy packing would sort them into.
            bins, totals = pack_in_order(costs, bucket, self._num_microbatches)
            # An empty bin costs int 0, as ``sum`` over it does.
            assignments.append([(bin_, total if bin_ else 0) for bin_, total in zip(bins, totals)])

        self._balance_result = assignments
        self._balance_method = "greedy"
        # Analytical estimate of the balance primitive's own latency: an
        # n-log-n sort plus bucket/bin heap operations per sample, scaled by
        # the bucket count (coordination across larger clusters costs more).
        n = max(1, len(costs))
        coordination = 1.0 + 0.002 * (self._num_buckets or 1)
        self._api_costs["balance"] = self._api_costs.get("balance", 0.0) + (
            2.5e-6 * n * math.log2(n + 1) * coordination
        )
        self._lineage_ops.append(
            ("balance", assignments, self._selected.sample_ids)
        )
        return self

    def broadcast_at(self, target_dim: str) -> "DGraph":
        """Declare a trainer-side broadcast along ``target_dim`` (TP/CP/PP).

        Clients with a non-zero coordinate along the dimension are excluded
        from data fetching, so the Data Constructor ships each tensor once per
        broadcast group.
        """
        tree = self._require_tree()
        tree.mark_broadcast(target_dim)
        self._broadcast_dims.append(target_dim.upper())
        return self

    def plan(self) -> DGraphPlan:
        """Interpret the accumulated declarations into a loading plan."""
        tree = self._require_tree()
        if self._balance_result is None:
            # Default: unbalanced round-robin over buckets in arrival order.
            if self._num_buckets is None:
                self.distribute(axis="DP")
            self._balance_result = self._unbalanced_assignment()
            self._balance_method = "none"

        module_plan = ModulePlan(
            module=self.module,
            axis=self._axis or "DP",
            num_buckets=self._num_buckets or 1,
            num_microbatches=self._num_microbatches,
            balance_method=self._balance_method,
        )
        bins = [
            (bucket_index, mb_index, positions, total)
            for bucket_index, bucket in enumerate(self._balance_result)
            for mb_index, (positions, total) in enumerate(bucket)
        ]
        # One selection in bin order; each assignment is a slice of it.
        order = chain.from_iterable(positions for _, _, positions, _ in bins)
        rows = self._selected.select(np.fromiter(order, dtype=np.intp))
        start = 0
        for bucket_index, mb_index, positions, total in bins:
            module_plan.assignments.append(
                MicrobatchAssignment(
                    bucket_index=bucket_index,
                    microbatch_index=mb_index,
                    rows=rows.select(slice(start, start + len(positions))),
                    estimated_cost=total,
                )
            )
            start += len(positions)
        module_plan.validate()

        return DGraphPlan(
            module=module_plan,
            fetching_ranks=tree.fetching_ranks(),
            mixture_weights=dict(self._mixture_weights),
            source_demands=self._source_demands(),
            api_costs=dict(self._api_costs),
        )

    def _source_demands(self) -> dict[str, list[int]]:
        """Selected sample ids per source, sorted (Python ints)."""
        columns = self._selected
        sample_ids = columns.sample_ids.tolist()
        return {
            columns.sources[code]: sorted(map(sample_ids.__getitem__, pool.tolist()))
            for code, pool in columns.pool_positions().items()
        }

    # -- low-level interfaces (summary_buffer) --------------------------------

    def summary_buffer(self) -> dict[str, dict[str, float]]:
        """Summarise the buffered metadata per source (tokens, counts, cost)."""
        summary: dict[str, dict[str, float]] = {}
        for sample, cost in zip(self._selected.to_list(), self._costs or repeat(0.0)):
            entry = summary.setdefault(
                sample.source, {"count": 0.0, "tokens": 0.0, "image_tokens": 0.0, "cost": 0.0}
            )
            entry["count"] += 1
            entry["tokens"] += sample.total_tokens
            entry["image_tokens"] += sample.image_tokens
            entry["cost"] += cost
        return summary

    # -- introspection ---------------------------------------------------------------------

    @property
    def selected_samples(self) -> list[SampleMetadata]:
        return self._selected.to_list()

    @property
    def selected_ids(self) -> np.ndarray:
        """Ids of the selected samples (no object materialisation needed)."""
        return self._selected.sample_ids

    @property
    def num_buckets(self) -> int | None:
        return self._num_buckets

    @property
    def nodes(self) -> list[DGraphNode]:
        self._materialize_lineage()
        return list(self._nodes.values())

    @property
    def api_costs(self) -> dict[str, float]:
        """Simulated seconds spent inside each primitive (Table 2)."""
        return dict(self._api_costs)

    def lineage(self, sample_id: int) -> list[str]:
        """Ordered list of states a sample has passed through."""
        self._materialize_lineage()
        states = [state for (sid, state) in self._nodes if sid == sample_id]
        order = {"buffered": 0, "sampled": 1, "assigned": 2}
        return sorted(states, key=lambda state: order.get(state, 99))

    def describe(self) -> str:
        return (
            f"DGraph(module={self.module!r}, samples={len(self._selected)}, "
            f"axis={self._axis}, buckets={self._num_buckets}, "
            f"microbatches={self._num_microbatches}, balance={self._balance_method!r})"
        )

    # -- internals -------------------------------------------------------------------------

    def _require_tree(self) -> ClientPlaceTree:
        if self._tree is None:
            raise OrchestrationError("DGraph.init(client_place_tree) must be called first")
        return self._tree

    def _add_node(self, sample_id: int, state: str, source: str, **detail: object) -> None:
        self._nodes[(sample_id, state)] = DGraphNode(
            sample_id=sample_id, state=state, source=source, detail=dict(detail)
        )

    def _transition(self, sample_id: int, from_state: str, to_state: str, **detail: object) -> None:
        node = self._nodes.get((sample_id, from_state))
        self._add_node(sample_id, to_state, node.source if node is not None else "", **detail)

    def _materialize_lineage(self) -> None:
        """Expand recorded column-level ops into nodes.

        Idempotent and incremental: the buffered base nodes are created once,
        and each recorded op is consumed exactly once, so primitive calls and
        lineage inspection can interleave freely.
        """
        if not self._base_materialized:
            self._base_materialized = True
            columns = self._columns
            codes = columns.source_codes.tolist()
            for sample_id, code in zip(columns.sample_ids.tolist(), codes):
                self._add_node(sample_id, "buffered", columns.sources[code])
        while self._lineage_cursor < len(self._lineage_ops):
            op = self._lineage_ops[self._lineage_cursor]
            self._lineage_cursor += 1
            if op[0] == "mix":
                for sample_id in op[1].tolist():
                    self._transition(sample_id, "buffered", "sampled")
            elif op[0] == "balance":
                _, assignments, sample_ids = op
                sample_ids = sample_ids.tolist()
                for bucket_index, bucket in enumerate(assignments):
                    for mb_index, (positions, _) in enumerate(bucket):
                        for sample_id in map(sample_ids.__getitem__, positions):
                            from_state = (
                                "sampled" if (sample_id, "sampled") in self._nodes else "buffered"
                            )
                            self._transition(
                                sample_id,
                                from_state,
                                "assigned",
                                bucket=bucket_index,
                                microbatch=mb_index,
                            )

    def _evaluate_costs(self) -> None:
        """Evaluate the registered cost function over the selected samples.

        The per-primitive latency recorded in ``api_costs`` is an analytical
        estimate (a fixed per-sample evaluation cost) so that Table 2 numbers
        are deterministic and machine-independent.

        Cost functions advertising a ``columns_eval`` hook (metadata columns
        -> (load array, memory array)) are evaluated in one vectorized pass;
        others fall back to the per-object loop, which yields bit-identical
        values by construction.
        """
        if self._cost_fn is None:
            return
        columns = self._selected
        columns_eval = getattr(self._cost_fn, "columns_eval", None)
        if columns_eval is not None:
            loads, _ = columns_eval(columns)
            self._costs = np.asarray(loads, dtype=float).tolist()
        else:
            results = map(self._cost_fn, columns.to_list())
            self._costs = [
                float(result[0] if isinstance(result, tuple) else result) for result in results
            ]
        self._api_costs["cost"] = (
            self._api_costs.get("cost", 0.0) + 1.2e-6 * len(columns)
        )

    def _unbalanced_assignment(self) -> list[list[tuple[list[int], float]]]:
        """Arrival-order assignment used when balance() was never called."""
        buckets: list[list[list[int]]] = [
            [[] for _ in range(self._num_microbatches)] for _ in range(self._num_buckets or 1)
        ]
        num_buckets = self._num_buckets or 1
        per_bucket = math.ceil(len(self._selected) / num_buckets) or 1
        for position in range(len(self._selected)):
            bucket_index = min(num_buckets - 1, position // per_bucket)
            offset = position - bucket_index * per_bucket
            per_bin = math.ceil(per_bucket / self._num_microbatches) or 1
            mb_index = min(self._num_microbatches - 1, offset // per_bin)
            buckets[bucket_index][mb_index].append(position)
        costs = self._costs or [0.0] * len(self._selected)
        return [[(bin_, sum([costs[p] for p in bin_])) for bin_ in bucket] for bucket in buckets]

    @staticmethod
    def _quota_per_source(
        names: list[str],
        probs: np.ndarray,
        pool_sizes: dict[str, int],
        target: int,
        strict_target: bool = False,
    ) -> dict[str, int]:
        """Largest-remainder allocation of the sampling target across sources.

        With ``strict_target`` (the caller asked for an explicit batch size),
        a capped source's unmet quota flows to sources with spare pool, in
        allocation order, so the target is met whenever the pool allows —
        without this the batch silently under-fills when the rounding
        remainder lands on a capped source.  Without it (target is just the
        whole selection), the weights shape the draw and under-fill is the
        correct outcome for a heavily-weighted shallow source.
        """
        raw = probs * target
        quotas = np.floor(raw).astype(int)
        remainder = target - int(quotas.sum())
        if remainder > 0:
            fractional = raw - quotas
            order = np.argsort(-fractional, kind="stable")
            for index in order[:remainder]:
                quotas[index] += 1
        allocation = {}
        leftover = 0
        for name, quota in zip(names, quotas):
            grant = min(int(quota), pool_sizes[name])
            allocation[name] = grant
            leftover += int(quota) - grant
        if strict_target:
            for name in names:
                if leftover <= 0:
                    break
                room = pool_sizes[name] - allocation[name]
                if room > 0:
                    grant = min(room, leftover)
                    allocation[name] += grant
                    leftover -= grant
        return allocation
