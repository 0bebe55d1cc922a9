"""Unit tests for the balancing strategies."""

from __future__ import annotations

import pytest

from repro.core.balancing import (
    WeightedItem,
    balance_items,
    get_strategy,
    greedy_binpack,
    interleaved_balance,
    karmarkar_karp,
)
from repro.errors import OrchestrationError


def items_from(costs):
    return [WeightedItem(key=i, cost=float(c)) for i, c in enumerate(costs)]


def keys_per_bin(result):
    return [[item.key for item in bin_] for bin_ in result.bins]


class TestGreedy:
    def test_perfect_split_when_possible(self):
        result = greedy_binpack(items_from([4, 4, 4, 4]), 2)
        assert result.bin_costs == [8.0, 8.0]
        assert result.imbalance_ratio == pytest.approx(1.0)

    def test_all_items_assigned_exactly_once(self):
        items = items_from(range(1, 20))
        result = greedy_binpack(items, 4)
        keys = sorted(key for bin_keys in keys_per_bin(result) for key in bin_keys)
        assert keys == list(range(19))

    def test_beats_naive_split_on_skewed_costs(self):
        costs = [100, 1, 1, 1, 1, 1, 1, 95]
        naive_max = sum(costs[:4])  # arrival-order split
        result = greedy_binpack(items_from(costs), 2)
        assert result.max_cost < naive_max

    def test_invalid_bin_count(self):
        with pytest.raises(OrchestrationError):
            greedy_binpack(items_from([1]), 0)

    def test_empty_items(self):
        result = greedy_binpack([], 3)
        assert result.bin_costs == [0.0, 0.0, 0.0]
        assert result.imbalance_ratio == 1.0


class TestKarmarkarKarp:
    def test_two_way_partition_quality(self):
        costs = [8, 7, 6, 5, 4]
        result = karmarkar_karp(items_from(costs), 2)
        assert result.max_cost - result.min_cost <= 2

    def test_all_items_preserved(self):
        items = items_from([3, 1, 4, 1, 5, 9, 2, 6])
        result = karmarkar_karp(items, 3)
        assert sorted(k for b in keys_per_bin(result) for k in b) == list(range(8))
        assert sum(result.bin_costs) == pytest.approx(sum(i.cost for i in items))

    def test_not_worse_than_greedy_on_skewed_input(self):
        costs = [2**k for k in range(12)]
        kk = karmarkar_karp(items_from(costs), 3)
        greedy = greedy_binpack(items_from(costs), 3)
        assert kk.max_cost <= greedy.max_cost * 1.05

    def test_empty(self):
        assert karmarkar_karp([], 2).bin_costs == [0.0, 0.0]

    def test_invalid_bins(self):
        with pytest.raises(OrchestrationError):
            karmarkar_karp(items_from([1]), 0)


class TestInterleave:
    def test_zigzag_order(self):
        result = interleaved_balance(items_from([8, 7, 6, 5, 4, 3, 2, 1]), 4)
        # descending deal: bins get (8,1),(7,2),(6,3),(5,4)
        assert sorted(result.bin_costs) == [9.0, 9.0, 9.0, 9.0]

    def test_single_bin(self):
        result = interleaved_balance(items_from([1, 2, 3]), 1)
        assert result.bin_costs == [6.0]


class TestRegistry:
    def test_builtins_available(self):
        assert get_strategy("greedy") is greedy_binpack
        assert get_strategy("karmarkar-karp") is karmarkar_karp
        assert get_strategy("interleave") is interleaved_balance

    def test_dispatch(self):
        result = balance_items(items_from([1, 2, 3, 4]), 2, method="karmarkar-karp")
        assert sum(result.bin_costs) == 10.0

    def test_unknown_strategy(self):
        with pytest.raises(OrchestrationError):
            get_strategy("zigzag-ultra")
