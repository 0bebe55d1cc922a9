"""Balancing: longest-processing-time-first greedy bin packing.

The ``balance`` primitive assigns cost-weighted items (samples) to bins
(microbatches within a bucket, or buckets across DP ranks) so that the maximum
bin cost — the straggler that sets the iteration's critical path — is as small
as possible.  Greedy packing is the one balancer: every caller in the
strategies, the examples, the benchmarks and the architecture model uses it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import OrchestrationError


@dataclass(frozen=True)
class WeightedItem:
    """An item to place: an opaque key plus its scalar cost."""

    key: object
    cost: float


@dataclass
class BalanceResult:
    """Assignment of items to bins plus each bin's total cost."""

    bins: list[list[WeightedItem]]
    bin_costs: list[float]


def _pack_greedy(costs: Sequence[float], num_bins: int) -> tuple[list[list[int]], list[float]]:
    return pack_in_order(
        costs, sorted(range(len(costs)), key=costs.__getitem__, reverse=True), num_bins
    )


def pack_in_order(
    costs: Sequence[float], positions: Iterable[int], num_bins: int
) -> tuple[list[list[int]], list[float]]:
    """Place ``positions`` (indices into ``costs``), in the order given, each
    into the currently lightest bin; returns every bin's positions and its
    running cost total."""
    if num_bins <= 0:
        raise OrchestrationError("num_bins must be positive")
    bins: list[list[int]] = [[] for _ in range(num_bins)]
    heap = [(0.0, index) for index in range(num_bins)]
    # The heap entries *are* the running bin costs — the final tally falls
    # out of the packing loop instead of a second O(n·bins) nested sum.
    running = [0.0] * num_bins
    for position in positions:
        cost, index = heap[0]
        bins[index].append(position)
        running[index] = cost = cost + costs[position]
        heapq.heapreplace(heap, (cost, index))
    return bins, running


def balance_items(items: Sequence[WeightedItem], num_bins: int) -> BalanceResult:
    """Longest-processing-time-first greedy packing.

    Sort by descending cost, repeatedly place the next item into the currently
    lightest bin.  O(n log n + n log k) with a heap; guarantees a makespan
    within 4/3 of optimal.
    """
    bins, bin_costs = _pack_greedy([item.cost for item in items], num_bins)
    return BalanceResult([[items[position] for position in bin_] for bin_ in bins], bin_costs)


def balance_positions(costs: Sequence[float], num_bins: int) -> list[list[int]]:
    """:func:`balance_items` by index: the positions into ``costs`` each bin gets.

    The packing loop runs on the costs as they are.
    """
    return _pack_greedy(costs, num_bins)[0]
