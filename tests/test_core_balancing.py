"""Unit tests for greedy bin packing."""

from __future__ import annotations

import pytest

from repro.core.balancing import WeightedItem, balance_items
from repro.errors import OrchestrationError


def items_from(costs):
    return [WeightedItem(key=i, cost=float(c)) for i, c in enumerate(costs)]


def keys_per_bin(result):
    return [[item.key for item in bin_] for bin_ in result.bins]


class TestGreedy:
    def test_perfect_split_when_possible(self):
        result = balance_items(items_from([4, 4, 4, 4]), 2)
        assert result.bin_costs == [8.0, 8.0]
        assert max(result.bin_costs) == min(result.bin_costs) == 8.0

    def test_all_items_assigned_exactly_once(self):
        items = items_from(range(1, 20))
        result = balance_items(items, 4)
        keys = sorted(key for bin_keys in keys_per_bin(result) for key in bin_keys)
        assert keys == list(range(19))

    def test_beats_naive_split_on_skewed_costs(self):
        costs = [100, 1, 1, 1, 1, 1, 1, 95]
        naive_max = sum(costs[:4])  # arrival-order split
        result = balance_items(items_from(costs), 2)
        assert max(result.bin_costs) < naive_max

    def test_invalid_bin_count(self):
        with pytest.raises(OrchestrationError):
            balance_items(items_from([1]), 0)

    def test_empty_items(self):
        result = balance_items([], 3)
        assert result.bin_costs == [0.0, 0.0, 0.0]

    def test_ties_go_to_the_lowest_index_bin(self):
        # Equal costs keep their arrival order and fill bins round-robin:
        # the tie-break plans (and so digests) depend on.
        result = balance_items(items_from([1, 1, 1, 1]), 2)
        assert keys_per_bin(result) == [[0, 2], [1, 3]]

    def test_more_bins_than_items_leaves_bins_empty(self):
        result = balance_items(items_from([5, 3]), 4)
        assert result.bin_costs == [5.0, 3.0, 0.0, 0.0]
