"""Built-in orchestration strategies expressed with the DGraph primitives.

A *strategy* is a callable ``(buffer_infos, tree, step, seed) -> DGraphPlan``
that the Planner invokes every step.  The strategies here correspond to the
three configurations evaluated in Sec. 7.3 (Vanilla, Backbone balance, Hybrid
balance) plus the unimodal long-short-sequence example of Fig. 9, and they
demonstrate how compact the declarative interface keeps each policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.columns import SampleColumns
from repro.core.dgraph import DGraph, DGraphPlan, metas_image, metas_token
from repro.core.place_tree import ClientPlaceTree
from repro.data.mixture import MixtureSchedule
from repro.data.samples import SampleMetadata

#: Strategy signature used by the Planner.
StrategyFn = Callable[[dict[str, list[SampleMetadata]], ClientPlaceTree, int, int], DGraphPlan]

#: Cost function signature: metadata -> (load, memory) or float.
CostFn = Callable[[SampleMetadata], object]


def _token_cost(metadata: SampleMetadata) -> float:
    return float(metadata.total_tokens) ** 2


def _image_cost(metadata: SampleMetadata) -> float:
    return float(metadata.image_tokens) ** 2


def _square_columns(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    floats = values.astype(float)
    return floats * floats, np.zeros(len(floats), dtype=float)


# Vectorized forms the DGraph evaluates over SampleColumns: one array pass
# instead of a per-sample call, bit-identical to the scalar forms above
# (squaring a double rounds once either way).
_token_cost.columns_eval = lambda columns: _square_columns(columns.total_tokens)
_image_cost.columns_eval = lambda columns: _square_columns(columns.image_tokens)


@dataclass
class StrategyConfig:
    """Shared knobs for the built-in strategies."""

    mixture: MixtureSchedule | None = None
    #: Cap on how many samples ``mix`` draws per step (None = the whole
    #: buffered pool); benchmarks use it to decouple batch size from depth.
    sample_count: int | None = None
    num_microbatches: int = 4
    balance_method: str = "greedy"
    backbone_costfn: CostFn | None = None
    encoder_costfn: CostFn | None = None
    broadcast_tp: bool = True
    broadcast_cp: bool = False
    distribute_axis: str = "DP"
    group_size: int | None = None
    intra_microbatch_reorder: bool = True


def vanilla_strategy(config: StrategyConfig | None = None) -> StrategyFn:
    """No balancing: samples flow to buckets in arrival order (the Baseline)."""
    config = config or StrategyConfig()

    def strategy(
        buffer_infos: dict[str, list[SampleMetadata]],
        tree: ClientPlaceTree,
        step: int,
        seed: int = 0,
    ) -> DGraphPlan:
        dgraph = DGraph.from_buffer_infos(buffer_infos, metas_token)
        dgraph.init(tree).with_step(step, seed)
        if config.mixture is not None:
            dgraph.mix(config.mixture, sample_count=config.sample_count)
        dgraph.distribute(axis=config.distribute_axis, group_size=config.group_size)
        dgraph._num_microbatches = config.num_microbatches
        if config.broadcast_tp:
            dgraph.broadcast_at("TP")
        if config.broadcast_cp:
            dgraph.broadcast_at("CP")
        return dgraph.plan()

    return strategy


def backbone_balance_strategy(config: StrategyConfig | None = None) -> StrategyFn:
    """Inter-microbatch load balancing on the LLM backbone only (Fig. 9 left).

    This is the seven-line ``LLM Balance`` listing: distribute along DP,
    register the backbone cost model, balance, and declare TP broadcasting.
    """
    config = config or StrategyConfig()
    costfn = config.backbone_costfn or _token_cost

    def strategy(
        buffer_infos: dict[str, list[SampleMetadata]],
        tree: ClientPlaceTree,
        step: int,
        seed: int = 0,
    ) -> DGraphPlan:
        dgraph = DGraph.from_buffer_infos(buffer_infos, metas_token)
        dgraph.init(tree).with_step(step, seed)
        if config.mixture is not None:
            dgraph.mix(config.mixture, sample_count=config.sample_count)
        dgraph.distribute(axis=config.distribute_axis, group_size=config.group_size)
        dgraph.cost(costfn)
        dgraph.balance(
            method=config.balance_method,
            num_microbatches=config.num_microbatches,
            intra_microbatch_reorder=config.intra_microbatch_reorder,
        )
        if config.broadcast_tp:
            dgraph.broadcast_at("TP")
        if config.broadcast_cp:
            dgraph.broadcast_at("CP")
        return dgraph.plan()

    return strategy


def hybrid_vlm_strategy(config: StrategyConfig | None = None) -> StrategyFn:
    """Hybrid balancing for VLMs: encoder images balanced WORLD-wide, backbone
    sequences balanced across DP ranks (Fig. 9 right, the five extra lines)."""
    config = config or StrategyConfig()
    backbone_costfn = config.backbone_costfn or _token_cost
    encoder_costfn = config.encoder_costfn or _image_cost

    def strategy(
        buffer_infos: dict[str, list[SampleMetadata]],
        tree: ClientPlaceTree,
        step: int,
        seed: int = 0,
    ) -> DGraphPlan:
        columns = SampleColumns.coerce(buffer_infos)
        dgraph = DGraph.from_buffer_infos(columns, metas_token, module="backbone")
        dgraph.init(tree).with_step(step, seed)
        if config.mixture is not None:
            dgraph.mix(config.mixture, sample_count=config.sample_count)
        dgraph.distribute(axis=config.distribute_axis, group_size=config.group_size)
        dgraph.cost(backbone_costfn)
        dgraph.balance(
            method=config.balance_method,
            num_microbatches=config.num_microbatches,
            intra_microbatch_reorder=config.intra_microbatch_reorder,
        )
        if config.broadcast_tp:
            dgraph.broadcast_at("TP")
        if config.broadcast_cp:
            dgraph.broadcast_at("CP")
        plan = dgraph.plan()

        # Encoder subplan: the image view of the *same* selected samples,
        # distributed across every GPU (world-wide encoder data parallelism).
        encoder_buffer = columns.where(np.isin(columns.sample_ids, dgraph.selected_ids))
        dgraph_encoder = DGraph.from_buffer_infos(encoder_buffer, metas_image, module="encoder")
        dgraph_encoder.init(tree).with_step(step, seed)
        dgraph_encoder.distribute(axis="WORLD")
        dgraph_encoder.cost(encoder_costfn)
        dgraph_encoder.balance(method=config.balance_method, num_microbatches=config.num_microbatches)
        plan.subplan["encoder"] = dgraph_encoder.plan()
        return plan

    return strategy


#: Named registry used by the framework / benchmarks.
BUILTIN_STRATEGIES: dict[str, Callable[[StrategyConfig | None], StrategyFn]] = {
    "vanilla": vanilla_strategy,
    "backbone_balance": backbone_balance_strategy,
    "hybrid": hybrid_vlm_strategy,
}


def make_strategy(name: str, config: StrategyConfig | None = None) -> StrategyFn:
    """Instantiate a built-in strategy by name."""
    try:
        factory = BUILTIN_STRATEGIES[name]
    except KeyError:
        raise KeyError(
            f"unknown strategy {name!r}; available: {sorted(BUILTIN_STRATEGIES)}"
        ) from None
    return factory(config)
