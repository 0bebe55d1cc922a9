"""Balancing strategies: greedy bin packing, Karmarkar-Karp and interleaving.

The ``balance`` primitive assigns cost-weighted items (samples) to bins
(microbatches within a bucket, or buckets across DP ranks) so that the maximum
bin cost — the straggler that sets the iteration's critical path — is as small
as possible.  The strategies here are the two candidates named in Sec. 4.2
plus an interleaved variant combining inter- and intra-microbatch balancing.
The set is closed: these three are the only names :func:`get_strategy` knows.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.errors import OrchestrationError


@dataclass(frozen=True)
class WeightedItem:
    """An item to place: an opaque key plus its scalar cost."""

    key: object
    cost: float


@dataclass
class BalanceResult:
    """Assignment of items to bins plus imbalance statistics."""

    bins: list[list[WeightedItem]]
    bin_costs: list[float]

    @property
    def max_cost(self) -> float:
        return max(self.bin_costs) if self.bin_costs else 0.0

    @property
    def min_cost(self) -> float:
        return min(self.bin_costs) if self.bin_costs else 0.0

    @property
    def imbalance_ratio(self) -> float:
        """max/min bin cost (1.0 means perfectly balanced)."""
        if not self.bin_costs or self.min_cost <= 0:
            return float("inf") if self.max_cost > 0 else 1.0
        return self.max_cost / self.min_cost


BalanceFn = Callable[[Sequence[WeightedItem], int], BalanceResult]
#: A packing loop: costs -> (positions into them per bin, cost per bin).
PackFn = Callable[[Sequence[float], int], tuple[list[list[int]], list[float]]]


def _pack_greedy(costs: Sequence[float], num_bins: int) -> tuple[list[list[int]], list[float]]:
    if num_bins <= 0:
        raise OrchestrationError("num_bins must be positive")
    bins: list[list[int]] = [[] for _ in range(num_bins)]
    heap = [(0.0, index) for index in range(num_bins)]
    # The heap entries *are* the running bin costs — the final tally falls
    # out of the packing loop instead of a second O(n·bins) nested sum.
    running = [0.0] * num_bins
    for position in sorted(range(len(costs)), key=costs.__getitem__, reverse=True):
        cost, index = heap[0]
        bins[index].append(position)
        running[index] = cost = cost + costs[position]
        heapq.heapreplace(heap, (cost, index))
    return bins, running


def _pack_karmarkar_karp(
    costs: Sequence[float], num_bins: int
) -> tuple[list[list[int]], list[float]]:
    if num_bins <= 0:
        raise OrchestrationError("num_bins must be positive")
    if not costs:
        return [[] for _ in range(num_bins)], [0.0] * num_bins

    # Each heap entry is (-spread, tie_breaker, subsets) where subsets is a list
    # of (cost, [positions]) sorted descending by cost.
    heap: list[tuple[float, int, list[tuple[float, list[int]]]]] = []
    for tie, cost in enumerate(costs):
        subsets = [(cost, [tie])] + [(0.0, []) for _ in range(num_bins - 1)]
        heapq.heappush(heap, (-cost, tie, subsets))

    tie = len(costs)
    while len(heap) > 1:
        spread_a, _, subsets_a = heapq.heappop(heap)
        spread_b, _, subsets_b = heapq.heappop(heap)
        # Merge: pair the largest of A with the smallest of B, and so on,
        # cancelling the differences.
        subsets_b_sorted = sorted(subsets_b, key=lambda entry: entry[0])
        merged = []
        for (cost_a, items_a), (cost_b, items_b) in zip(subsets_a, subsets_b_sorted):
            merged.append((cost_a + cost_b, items_a + items_b))
        merged.sort(key=lambda entry: entry[0], reverse=True)
        spread = merged[0][0] - merged[-1][0]
        heapq.heappush(heap, (-spread, tie, merged))
        tie += 1

    _, _, final_subsets = heap[0]
    return [subset for _, subset in final_subsets], [float(cost) for cost, _ in final_subsets]


def _pack_interleaved(
    costs: Sequence[float], num_bins: int
) -> tuple[list[list[int]], list[float]]:
    if num_bins <= 0:
        raise OrchestrationError("num_bins must be positive")
    bins: list[list[int]] = [[] for _ in range(num_bins)]
    ordered = sorted(range(len(costs)), key=costs.__getitem__, reverse=True)
    if not ordered:
        return bins, [0.0] * num_bins
    indices = np.empty(len(ordered), dtype=np.intp)
    for rank, position in enumerate(ordered):
        round_index, offset = divmod(rank, num_bins)
        index = offset if round_index % 2 == 0 else num_bins - 1 - offset
        indices[rank] = index
        bins[index].append(position)
    # Vectorized tally: one bincount over the dealt positions replaces the
    # nested per-bin sum.
    weights = np.fromiter(map(costs.__getitem__, ordered), dtype=float, count=len(ordered))
    return bins, np.bincount(indices, weights=weights, minlength=num_bins).tolist()


def _item_form(pack: PackFn, items: Sequence[WeightedItem], num_bins: int) -> BalanceResult:
    """Run a packing loop over the items' costs and bin the items themselves."""
    bins, bin_costs = pack([item.cost for item in items], num_bins)
    return BalanceResult([[items[position] for position in bin_] for bin_ in bins], bin_costs)


def greedy_binpack(items: Sequence[WeightedItem], num_bins: int) -> BalanceResult:
    """Longest-processing-time-first greedy packing.

    Sort by descending cost, repeatedly place the next item into the currently
    lightest bin.  O(n log n + n log k) with a heap; guarantees a makespan
    within 4/3 of optimal.
    """
    return _item_form(_pack_greedy, items, num_bins)


def karmarkar_karp(items: Sequence[WeightedItem], num_bins: int) -> BalanceResult:
    """Karmarkar-Karp largest-differencing-method partitioning.

    Maintains partial partitions ordered by their internal spread and
    repeatedly merges the two with the largest spreads, cancelling their
    differences.  Typically beats greedy packing when item costs are highly
    skewed (long-tailed sequence lengths).
    """
    return _item_form(_pack_karmarkar_karp, items, num_bins)


def interleaved_balance(items: Sequence[WeightedItem], num_bins: int) -> BalanceResult:
    """Sort items by cost and deal them out in a boustrophedon (zig-zag) order.

    Cheap, deterministic and order-preserving within a bin; a good fit when
    intra-microbatch sample order must stay close to the sampled order.
    """
    return _item_form(_pack_interleaved, items, num_bins)


#: The packing loop behind each built-in strategy.
_PACKING_LOOPS: dict[BalanceFn, PackFn] = {
    greedy_binpack: _pack_greedy,
    karmarkar_karp: _pack_karmarkar_karp,
    interleaved_balance: _pack_interleaved,
}

#: The balancing strategies by name.
_STRATEGIES: dict[str, BalanceFn] = {
    "greedy": greedy_binpack,
    "karmarkar-karp": karmarkar_karp,
    "interleave": interleaved_balance,
}


def get_strategy(name: str) -> BalanceFn:
    try:
        return _STRATEGIES[name]
    except KeyError:
        raise OrchestrationError(
            f"unknown balancing strategy {name!r}; available: {sorted(_STRATEGIES)}"
        ) from None


def balance_items(
    items: Sequence[WeightedItem], num_bins: int, method: str = "greedy"
) -> BalanceResult:
    """Dispatch to a named strategy."""
    return get_strategy(method)(items, num_bins)


def balance_positions(
    costs: Sequence[float], num_bins: int, method: str = "greedy"
) -> list[list[int]]:
    """:func:`balance_items` by index: the positions into ``costs`` each bin gets.

    The strategy's packing loop runs on the costs as they are.
    """
    return _PACKING_LOOPS[get_strategy(method)](costs, num_bins)[0]
