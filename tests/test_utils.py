"""Unit tests for repro.utils (units, ids, rng)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.ids import IdAllocator
from repro.utils.rng import derive_rng
from repro.utils.units import GIB, KIB, MIB, bytes_to_gib, bytes_to_mib, format_bytes, format_seconds


class TestUnits:
    def test_constants_are_powers_of_two(self):
        assert KIB == 1024
        assert MIB == 1024**2
        assert GIB == 1024**3

    def test_bytes_to_mib(self):
        assert bytes_to_mib(2 * MIB) == pytest.approx(2.0)

    def test_bytes_to_gib(self):
        assert bytes_to_gib(3 * GIB) == pytest.approx(3.0)

    def test_format_bytes_small(self):
        assert format_bytes(512) == "512 B"

    def test_format_bytes_mib(self):
        assert format_bytes(2 * MIB) == "2.00 MiB"

    def test_format_bytes_gib(self):
        assert "GiB" in format_bytes(5 * GIB)

    def test_format_seconds_microseconds(self):
        assert "us" in format_seconds(5e-6)

    def test_format_seconds_milliseconds(self):
        assert "ms" in format_seconds(0.25)

    def test_format_seconds_minutes(self):
        assert format_seconds(75) == "1m 15.0s"


class TestIdAllocator:
    def test_ids_are_monotonic(self):
        allocator = IdAllocator()
        assert [allocator.next("a") for _ in range(3)] == [0, 1, 2]

    def test_namespaces_are_independent(self):
        allocator = IdAllocator()
        allocator.next("a")
        assert allocator.next("b") == 0

    def test_next_name_format(self):
        allocator = IdAllocator()
        assert allocator.next_name("loader") == "loader-0"
        assert allocator.next_name("loader") == "loader-1"

    def test_reset_single_namespace(self):
        allocator = IdAllocator()
        allocator.next("a")
        allocator.next("b")
        allocator.reset("a")
        assert allocator.next("a") == 0
        assert allocator.next("b") == 1

    def test_reset_all(self):
        allocator = IdAllocator()
        allocator.next("a")
        allocator.reset()
        assert allocator.next("a") == 0


class TestRng:
    def test_same_seed_same_stream(self):
        a = derive_rng(42, "x").random(5)
        b = derive_rng(42, "x").random(5)
        assert np.allclose(a, b)

    def test_different_labels_different_streams(self):
        a = derive_rng(42, "x").random(5)
        b = derive_rng(42, "y").random(5)
        assert not np.allclose(a, b)

    def test_different_seeds_different_streams(self):
        a = derive_rng(1, "x").random(5)
        b = derive_rng(2, "x").random(5)
        assert not np.allclose(a, b)

    def test_labels_accept_non_strings(self):
        rng = derive_rng(0, "source", 3, 2.5)
        assert 0.0 <= rng.random() < 1.0
