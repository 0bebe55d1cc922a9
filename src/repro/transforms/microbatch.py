"""Microbatch-level transformations: packing and RoPE positions.

After the Planner assigns samples to microbatches, the Data Constructor
collates them into fixed-shape inputs: *packing* merges fragmented
subsequences into complete sequences with segment masks, and RoPE position
ids provide the positional context the backbone expects.

:func:`collate_columns_with_positions` is the one collation: numpy kernels over
a microbatch's token-length array.  Each sample goes to the lowest-numbered
open sequence it fits (first fit), found on a max tournament tree over
open-bin residuals in O(samples · log bins); a sample longer than
``max_sequence_length`` is clipped to it.  What parallelism slicing reads
(``sequence_lengths``, token totals) is computed at collation; the
per-segment and per-token outputs (``sequences`` from one stable argsort,
``position_ids`` as slices of one cached int32 ramp) are built on first read,
so a caller that only slices never pays for them.  ``tests/test_core_assembly.py``
checks the kernels against a first-fit scan and a per-block ``arange`` written
out in the test, and ``tests/test_reference_pins.py`` pins their bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.errors import TransformError


@dataclass
class PackedSequence:
    """One packed training sequence: its token count and segment table."""

    tokens: int
    segments: list[tuple[int, int]]  # (sample_id, token_count)


@dataclass
class CollatedMicrobatch:
    """A collated microbatch ready for parallelism transformations.

    ``sequence_lengths`` holds the per-sequence token counts as an ``int64``
    array, so parallelism slicing stays vectorized.  ``_layout`` is
    ``(sequence index per sample, clipped sample lengths)``; ``sequences``
    and ``position_ids`` are expanded from it on first read and kept.
    """

    index: int
    max_sequence_length: int
    sample_ids: list[int]
    sequence_lengths: np.ndarray = field(repr=False, compare=False)
    _total_tokens: int = field(repr=False, compare=False)
    _layout: tuple[np.ndarray, np.ndarray] = field(repr=False, compare=False)

    def total_tokens(self) -> int:
        return self._total_tokens

    @cached_property
    def sequences(self) -> list[PackedSequence]:
        """Segment tables, one per sequence (one stable argsort by bin)."""
        bins, clipped = self._layout
        order = np.argsort(bins, kind="stable")
        ordered_ids = [self.sample_ids[i] for i in order.tolist()]
        ordered_lengths = clipped[order].tolist()
        ends = np.cumsum(np.bincount(bins)).tolist()
        return [
            PackedSequence(
                tokens=tokens,
                segments=list(zip(ordered_ids[start:end], ordered_lengths[start:end])),
            )
            for tokens, start, end in zip(self.sequence_lengths.tolist(), [0, *ends], ends)
        ]

    @cached_property
    def position_ids(self) -> np.ndarray:
        """RoPE position ids, restarting at every packed segment."""
        bins, clipped = self._layout
        return _positions_from_blocks(clipped[np.argsort(bins, kind="stable")])


# -- columnar collation kernels -----------------------------------------------------------------


def first_fit_bin_indices(lengths: np.ndarray, capacity: int) -> np.ndarray:
    """First-fit bin index per sample, in arrival order.

    Each sample goes to the *lowest-numbered* open bin whose residual capacity
    fits it, opening a new bin otherwise; a zero-length sample fits the first
    open bin.  The leftmost-fitting-bin query runs on a max tournament tree
    over open-bin residuals (a heap-shaped segment tree), so a microbatch
    packs in O(samples · log bins) instead of a linear scan's
    O(samples · bins).  Over-capacity samples are clipped to ``capacity``.
    """
    if capacity <= 0:
        raise TransformError("max_sequence_length must be positive")
    count = len(lengths)
    bins = [0] * count
    size = 1
    while size < count:
        size *= 2
    # tree[size + i] = residual capacity of bin i (0 = not yet opened);
    # internal nodes hold subtree maxima, so descending left-first finds the
    # leftmost bin with residual >= length in O(log bins).
    tree = [0] * (2 * size)
    num_bins = 0
    lengths_list = lengths.tolist()
    for index, length in enumerate(lengths_list):
        if length > capacity:
            length = capacity
        if tree[1] >= length and length > 0:
            node = 1
            while node < size:
                node *= 2
                if tree[node] < length:
                    node += 1
            leaf = node - size
        elif length == 0 and num_bins > 0:
            # A zero-length sample fits the first open bin unconditionally
            # (``tokens + 0 <= capacity``).
            leaf = 0
            node = size
        else:
            leaf = num_bins
            node = size + leaf
            tree[node] = capacity
            num_bins += 1
        bins[index] = leaf
        tree[node] -= length
        node //= 2
        while node:
            left = tree[2 * node]
            right = tree[2 * node + 1]
            best = left if left >= right else right
            if tree[node] == best:
                # The subtree maximum is unchanged, so every ancestor's is too.
                break
            tree[node] = best
            node //= 2
    return np.asarray(bins, dtype=np.intp)


#: ``0..n-1`` as int32, shared by every position block; regrown (never shrunk
#: or written to) when a block is longer than any seen before.
_RAMP = np.arange(4096, dtype=np.int32)


def _positions_from_blocks(block_lengths: np.ndarray) -> np.ndarray:
    """Position ids ``0..len-1`` per block, blocks back to back.

    Every block is a slice of the one cached ramp and a single ``concatenate``
    copies them out, so the cost is one pass at memory bandwidth with no
    per-token arithmetic.
    """
    global _RAMP
    if len(block_lengths) == 0:
        return np.empty(0, dtype=np.int32)
    ramp = _RAMP
    longest = int(block_lengths.max())
    if longest > len(ramp):
        ramp = _RAMP = np.arange(max(longest, 2 * len(ramp)), dtype=np.int32)
    return np.concatenate([ramp[:length] for length in block_lengths.tolist()])


def collate_columns_with_positions(
    index: int,
    sample_ids: list[int],
    lengths: np.ndarray,
    max_sequence_length: int,
) -> CollatedMicrobatch:
    """Pack a microbatch straight from its token-length array.

    Packing runs :func:`first_fit_bin_indices` and fills in
    ``sequence_lengths`` and the token total, which is all that parallelism
    slicing reads.  ``sequences`` and ``position_ids`` are built from the bin
    assignment when first read.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    clipped = np.minimum(lengths, max_sequence_length)
    bins = first_fit_bin_indices(lengths, max_sequence_length)
    sequence_lengths = np.bincount(bins, weights=clipped).astype(np.int64)
    return CollatedMicrobatch(
        index=index,
        max_sequence_length=max_sequence_length,
        sample_ids=list(sample_ids),
        sequence_lengths=sequence_lengths,
        _total_tokens=int(sequence_lengths.sum()),
        _layout=(bins, clipped),
    )
