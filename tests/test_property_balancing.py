"""Property-based tests for greedy bin packing."""

from __future__ import annotations

import heapq
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.balancing import WeightedItem, balance_items, balance_positions

costs_strategy = st.lists(st.floats(min_value=0.01, max_value=1e6), min_size=1, max_size=80)
bins_strategy = st.integers(min_value=1, max_value=12)


def make_items(costs):
    return [WeightedItem(key=index, cost=cost) for index, cost in enumerate(costs)]


def keys_per_bin(result):
    return [[item.key for item in bin_] for bin_ in result.bins]


@given(costs=costs_strategy, num_bins=bins_strategy)
@settings(max_examples=60, deadline=None)
def test_greedy_preserves_every_item_exactly_once(costs, num_bins):
    result = balance_items(make_items(costs), num_bins)
    keys = sorted(key for bin_keys in keys_per_bin(result) for key in bin_keys)
    assert keys == list(range(len(costs)))


@given(costs=costs_strategy, num_bins=bins_strategy)
@settings(max_examples=60, deadline=None)
def test_greedy_total_cost_conserved(costs, num_bins):
    result = balance_items(make_items(costs), num_bins)
    assert math.isclose(sum(result.bin_costs), sum(costs), rel_tol=1e-9)


@given(costs=costs_strategy, num_bins=bins_strategy)
@settings(max_examples=60, deadline=None)
def test_greedy_makespan_bounds(costs, num_bins):
    """LPT greedy stays within the list-scheduling makespan guarantee.

    The classic 4/3 factor holds versus OPT, which ``max(max, sum/k)`` only
    lower-bounds (5 equal items on 4 bins: OPT = 2, lower bound = 1.25), so
    the safe certified upper bound versus observable quantities is the
    Graham list-scheduling bound ``sum/k + max``.
    """
    result = balance_items(make_items(costs), num_bins)
    lower_bound = max(max(costs), sum(costs) / num_bins)
    assert max(result.bin_costs) >= lower_bound * (1.0 - 1e-9)
    upper_bound = sum(costs) / num_bins + max(costs)
    assert max(result.bin_costs) <= upper_bound * (1.0 + 1e-9) + 1e-6


@given(
    costs=st.lists(st.floats(min_value=1.0, max_value=1000.0), min_size=8, max_size=64),
    num_bins=st.integers(min_value=2, max_value=8),
)
@settings(max_examples=40, deadline=None)
def test_greedy_within_approximation_of_arrival_order(costs, num_bins):
    """Greedy stays within the LPT approximation factor of *any* split,
    including the contiguous arrival-order one a baseline loader would use."""
    items = make_items(costs)
    balanced = balance_items(items, num_bins)
    chunk = math.ceil(len(costs) / num_bins)
    arrival_max = max(
        sum(costs[i : i + chunk]) for i in range(0, len(costs), chunk)
    )
    assert max(balanced.bin_costs) <= (4.0 / 3.0) * arrival_max + 1e-6


@given(costs=costs_strategy)
@settings(max_examples=30, deadline=None)
def test_single_bin_gets_everything(costs):
    result = balance_items(make_items(costs), 1)
    assert math.isclose(result.bin_costs[0], sum(costs), rel_tol=1e-9)


# -- position form == item form ------------------------------------------------------
#
# The packing loop runs on costs and returns positions (what ``DGraph.balance``
# calls); the reference below is the item form of greedy packing as it was
# before that change (commit 340732f), kept here so the comparison does not
# depend on the code under test.


def _reference_greedy(items, num_bins):
    bins = [[] for _ in range(num_bins)]
    heap = [(0.0, index) for index in range(num_bins)]
    heapq.heapify(heap)
    running = [0.0] * num_bins
    for item in sorted(items, key=lambda it: it.cost, reverse=True):
        cost, index = heapq.heappop(heap)
        bins[index].append(item)
        cost += item.cost
        running[index] = cost
        heapq.heappush(heap, (cost, index))
    return bins, running


@given(
    # Few distinct values: ties and zeros are the common case, not the rare one.
    costs=st.lists(
        st.one_of(st.sampled_from([0.0, 1.0, 2.5, 7.0]), st.floats(min_value=0.0, max_value=1e6)),
        min_size=0, max_size=60,
    ),
    num_bins=st.integers(min_value=1, max_value=12),
)
@settings(max_examples=200, deadline=None)
def test_position_form_equals_the_item_form(costs, num_bins):
    items = make_items(costs)
    expected_bins, expected_costs = _reference_greedy(items, num_bins)
    expected_positions = [[item.key for item in bin_] for bin_ in expected_bins]
    assert balance_positions(costs, num_bins) == expected_positions
    result = balance_items(items, num_bins)
    assert keys_per_bin(result) == expected_positions
    assert result.bin_costs == expected_costs
    assert all(item is items[item.key] for bin_ in result.bins for item in bin_)
