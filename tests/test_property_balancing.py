"""Property-based tests for the balancing strategies."""

from __future__ import annotations

import heapq
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.balancing import (
    WeightedItem,
    balance_items,
    balance_positions,
    greedy_binpack,
    interleaved_balance,
    karmarkar_karp,
)

costs_strategy = st.lists(st.floats(min_value=0.01, max_value=1e6), min_size=1, max_size=80)
bins_strategy = st.integers(min_value=1, max_value=12)


def make_items(costs):
    return [WeightedItem(key=index, cost=cost) for index, cost in enumerate(costs)]


def keys_per_bin(result):
    return [[item.key for item in bin_] for bin_ in result.bins]


@given(costs=costs_strategy, num_bins=bins_strategy)
@settings(max_examples=60, deadline=None)
def test_greedy_preserves_every_item_exactly_once(costs, num_bins):
    result = greedy_binpack(make_items(costs), num_bins)
    keys = sorted(key for bin_keys in keys_per_bin(result) for key in bin_keys)
    assert keys == list(range(len(costs)))


@given(costs=costs_strategy, num_bins=bins_strategy)
@settings(max_examples=60, deadline=None)
def test_greedy_total_cost_conserved(costs, num_bins):
    result = greedy_binpack(make_items(costs), num_bins)
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
    result = greedy_binpack(make_items(costs), num_bins)
    lower_bound = max(max(costs), sum(costs) / num_bins)
    assert result.max_cost >= lower_bound * (1.0 - 1e-9)
    upper_bound = sum(costs) / num_bins + max(costs)
    assert result.max_cost <= upper_bound * (1.0 + 1e-9) + 1e-6


@given(costs=costs_strategy, num_bins=bins_strategy)
@settings(max_examples=40, deadline=None)
def test_karmarkar_karp_preserves_items_and_cost(costs, num_bins):
    result = karmarkar_karp(make_items(costs), num_bins)
    keys = sorted(key for bin_keys in keys_per_bin(result) for key in bin_keys)
    assert keys == list(range(len(costs)))
    assert math.isclose(sum(result.bin_costs), sum(costs), rel_tol=1e-9)
    assert len(result.bins) == num_bins


@given(costs=costs_strategy, num_bins=bins_strategy)
@settings(max_examples=40, deadline=None)
def test_interleave_preserves_items(costs, num_bins):
    result = interleaved_balance(make_items(costs), num_bins)
    keys = sorted(key for bin_keys in keys_per_bin(result) for key in bin_keys)
    assert keys == list(range(len(costs)))


@given(
    costs=st.lists(st.floats(min_value=1.0, max_value=1000.0), min_size=8, max_size=64),
    num_bins=st.integers(min_value=2, max_value=8),
    method=st.sampled_from(["greedy", "karmarkar-karp"]),
)
@settings(max_examples=40, deadline=None)
def test_cost_aware_methods_within_approximation_of_arrival_order(costs, num_bins, method):
    """Greedy / KK stay within the LPT approximation factor of *any* split,
    including the contiguous arrival-order one a baseline loader would use."""
    items = make_items(costs)
    balanced = balance_items(items, num_bins, method)
    chunk = math.ceil(len(costs) / num_bins)
    arrival_max = max(
        sum(costs[i : i + chunk]) for i in range(0, len(costs), chunk)
    )
    assert balanced.max_cost <= (4.0 / 3.0) * arrival_max + 1e-6


@given(
    costs=st.lists(st.floats(min_value=1.0, max_value=1000.0), min_size=4, max_size=64),
    num_bins=st.integers(min_value=2, max_value=8),
)
@settings(max_examples=40, deadline=None)
def test_interleave_within_two_of_lower_bound(costs, num_bins):
    """The zig-zag deal is cheap, not optimal, but stays within 2x of the lower bound."""
    balanced = balance_items(make_items(costs), num_bins, "interleave")
    lower_bound = max(max(costs), sum(costs) / num_bins)
    assert balanced.max_cost <= 2.0 * lower_bound + 1e-6


@given(costs=costs_strategy)
@settings(max_examples=30, deadline=None)
def test_single_bin_gets_everything(costs):
    for method in ("greedy", "karmarkar-karp", "interleave"):
        result = balance_items(make_items(costs), 1, method)
        assert math.isclose(result.bin_costs[0], sum(costs), rel_tol=1e-9)


# -- position form == item form ------------------------------------------------------
#
# The packing loops run on costs and return positions (what ``DGraph.balance``
# calls); the reference below is the item form of the three built-in
# strategies as it was before that change (commit 340732f), kept here so the
# comparison does not depend on the code under test.


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


def _reference_karmarkar_karp(items, num_bins):
    if not items:
        return [[] for _ in range(num_bins)], [0.0] * num_bins
    heap = []
    for tie, item in enumerate(items):
        subsets = [(item.cost, [item])] + [(0.0, []) for _ in range(num_bins - 1)]
        heapq.heappush(heap, (-item.cost, tie, subsets))
    tie = len(items)
    while len(heap) > 1:
        _, _, subsets_a = heapq.heappop(heap)
        _, _, subsets_b = heapq.heappop(heap)
        subsets_b_sorted = sorted(subsets_b, key=lambda entry: entry[0])
        merged = []
        for (cost_a, items_a), (cost_b, items_b) in zip(subsets_a, subsets_b_sorted):
            merged.append((cost_a + cost_b, items_a + items_b))
        merged.sort(key=lambda entry: entry[0], reverse=True)
        heapq.heappush(heap, (-(merged[0][0] - merged[-1][0]), tie, merged))
        tie += 1
    _, _, final_subsets = heap[0]
    return [list(subset) for _, subset in final_subsets], [float(cost) for cost, _ in final_subsets]


def _reference_interleaved(items, num_bins):
    bins = [[] for _ in range(num_bins)]
    ordered = sorted(items, key=lambda it: it.cost, reverse=True)
    if not ordered:
        return bins, [0.0] * num_bins
    indices = np.empty(len(ordered), dtype=np.intp)
    for position, item in enumerate(ordered):
        round_index, offset = divmod(position, num_bins)
        index = offset if round_index % 2 == 0 else num_bins - 1 - offset
        indices[position] = index
        bins[index].append(item)
    costs = np.fromiter((item.cost for item in ordered), dtype=float, count=len(ordered))
    return bins, np.bincount(indices, weights=costs, minlength=num_bins).tolist()


REFERENCE_ITEM_FORMS = {
    "greedy": (_reference_greedy, greedy_binpack),
    "karmarkar-karp": (_reference_karmarkar_karp, karmarkar_karp),
    "interleave": (_reference_interleaved, interleaved_balance),
}


@given(
    # Few distinct values: ties and zeros are the common case, not the rare one.
    costs=st.lists(
        st.one_of(st.sampled_from([0.0, 1.0, 2.5, 7.0]), st.floats(min_value=0.0, max_value=1e6)),
        min_size=0, max_size=60,
    ),
    num_bins=st.integers(min_value=1, max_value=12),
    method=st.sampled_from(sorted(REFERENCE_ITEM_FORMS)),
)
@settings(max_examples=200, deadline=None)
def test_position_form_equals_the_item_form(costs, num_bins, method):
    reference, public = REFERENCE_ITEM_FORMS[method]
    items = make_items(costs)
    expected_bins, expected_costs = reference(items, num_bins)
    expected_positions = [[item.key for item in bin_] for bin_ in expected_bins]
    assert balance_positions(costs, num_bins, method) == expected_positions
    result = public(items, num_bins)
    assert keys_per_bin(result) == expected_positions
    assert result.bin_costs == expected_costs
    assert all(item is items[item.key] for bin_ in result.bins for item in bin_)
