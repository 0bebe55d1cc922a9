"""Built-in orchestration strategies expressed with the DGraph primitives.

A *strategy* is a callable ``(buffer_infos, tree, step, seed) -> DGraphPlan``
that the Planner invokes every step with its gather, one
:class:`~repro.core.columns.SampleColumns`.  The strategies here correspond
to the three configurations evaluated in Sec. 7.3 (Vanilla, Backbone balance,
Hybrid balance) plus the unimodal long-short-sequence example of Fig. 9, and
they demonstrate how compact the declarative interface keeps each policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.columns import SampleColumns
from repro.core.dgraph import DGraph, DGraphPlan, metas_image, metas_token
from repro.core.place_tree import ClientPlaceTree
from repro.data.mixture import MixtureSchedule

#: Strategy signature used by the Planner.
StrategyFn = Callable[[SampleColumns, ClientPlaceTree, int, int], DGraphPlan]


def _token_cost(rows: SampleColumns) -> np.ndarray:
    tokens = rows.total_tokens.astype(float)
    return tokens * tokens


def _image_cost(rows: SampleColumns) -> np.ndarray:
    tokens = rows.image_tokens.astype(float)
    return tokens * tokens


@dataclass
class StrategyConfig:
    """Shared knobs for the built-in strategies.

    Every strategy distributes along DP, costs backbone samples by squared
    tokens (encoder samples by squared image tokens), balances greedily and
    broadcasts along TP.
    """

    mixture: MixtureSchedule | None = None
    #: Cap on how many samples ``mix`` draws per step (None = the whole
    #: buffered pool); benchmarks use it to decouple batch size from depth.
    sample_count: int | None = None
    num_microbatches: int = 4


def vanilla_strategy(config: StrategyConfig | None = None) -> StrategyFn:
    """No balancing: samples flow to buckets in arrival order (the Baseline)."""
    config = config or StrategyConfig()

    def strategy(
        buffer_infos: SampleColumns,
        tree: ClientPlaceTree,
        step: int,
        seed: int = 0,
    ) -> DGraphPlan:
        dgraph = DGraph.from_buffer_infos(buffer_infos, metas_token)
        dgraph.init(tree).with_step(step, seed)
        if config.mixture is not None:
            dgraph.mix(config.mixture, sample_count=config.sample_count)
        dgraph.distribute(axis="DP")
        dgraph._num_microbatches = config.num_microbatches
        dgraph.broadcast_at("TP")
        return dgraph.plan()

    return strategy


def backbone_balance_strategy(config: StrategyConfig | None = None) -> StrategyFn:
    """Inter-microbatch load balancing on the LLM backbone only (Fig. 9 left).

    This is the seven-line ``LLM Balance`` listing: distribute along DP,
    register the backbone cost model, balance, and declare TP broadcasting.
    """
    config = config or StrategyConfig()

    def strategy(
        buffer_infos: SampleColumns,
        tree: ClientPlaceTree,
        step: int,
        seed: int = 0,
    ) -> DGraphPlan:
        dgraph = DGraph.from_buffer_infos(buffer_infos, metas_token)
        dgraph.init(tree).with_step(step, seed)
        if config.mixture is not None:
            dgraph.mix(config.mixture, sample_count=config.sample_count)
        dgraph.distribute(axis="DP")
        dgraph.cost(_token_cost)
        dgraph.balance(num_microbatches=config.num_microbatches)
        dgraph.broadcast_at("TP")
        return dgraph.plan()

    return strategy


def hybrid_vlm_strategy(config: StrategyConfig | None = None) -> StrategyFn:
    """Hybrid balancing for VLMs: encoder images balanced WORLD-wide, backbone
    sequences balanced across DP ranks (Fig. 9 right, the five extra lines)."""
    config = config or StrategyConfig()

    def strategy(
        buffer_infos: SampleColumns,
        tree: ClientPlaceTree,
        step: int,
        seed: int = 0,
    ) -> DGraphPlan:
        dgraph = DGraph.from_buffer_infos(buffer_infos, metas_token, module="backbone")
        dgraph.init(tree).with_step(step, seed)
        if config.mixture is not None:
            dgraph.mix(config.mixture, sample_count=config.sample_count)
        dgraph.distribute(axis="DP")
        dgraph.cost(_token_cost)
        dgraph.balance(num_microbatches=config.num_microbatches)
        dgraph.broadcast_at("TP")
        plan = dgraph.plan()

        # Encoder subplan: the image view of the *same* selected samples,
        # distributed across every GPU (world-wide encoder data parallelism).
        # The backbone graph's input rows are ``buffer_infos``, so the
        # positions its mix chose pick the encoder's rows in buffer order.
        positions = dgraph.selected_positions
        encoder_buffer = buffer_infos
        if positions is not None:
            chosen = np.zeros(len(buffer_infos), dtype=bool)
            chosen[positions] = True
            encoder_buffer = buffer_infos.where(chosen)
        dgraph_encoder = DGraph.from_buffer_infos(encoder_buffer, metas_image, module="encoder")
        dgraph_encoder.init(tree).with_step(step, seed)
        dgraph_encoder.distribute(axis="WORLD")
        dgraph_encoder.cost(_image_cost)
        dgraph_encoder.balance(num_microbatches=config.num_microbatches)
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
