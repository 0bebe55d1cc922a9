"""Microbatch-level transformations: packing and RoPE positions.

After the Planner assigns samples to microbatches, the Data Constructor
collates them into fixed-shape inputs: *packing* merges fragmented
subsequences into complete sequences with segment masks, and RoPE position
ids provide the positional context the backbone expects.

:func:`collate_columns_with_positions` is the one collation: kernels over a
batch's token-length array, cut into microbatches by row offsets.  In each
microbatch a sample goes to the lowest-numbered open sequence it fits (first
fit; a sample longer than ``max_sequence_length`` is clipped to it): a scan
of open residuals below the :data:`SCAN_MAX_SAMPLES` crossover, O(samples ·
sequences), a max tournament tree above it, O(samples · log sequences).
``sequences`` and ``position_ids`` are built on first read, so a caller that
only slices never pays for them.  ``tests/test_core_assembly.py`` checks the
kernels against a first-fit scan per microbatch and a per-block ``arange``,
and ``tests/test_reference_pins.py`` pins their bytes.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.errors import TransformError

#: Microbatches of at most this many samples scan; longer ones use the tree.
#: Set at the crossover measured on fig24's corpora (16-1400-token samples
#: into 2048): scan/tree time per microbatch 0.81-0.97 at 448 samples and
#: 0.91-1.10 at 512.  The bench workloads' microbatches hold at most 71.
SCAN_MAX_SAMPLES = 448


@dataclass
class PackedSequence:
    """One packed training sequence: its token count and segment table."""

    tokens: int
    segments: list[tuple[int, int]]  # (sample_id, token_count)


@dataclass
class CollatedBatch:
    """A collated batch: microbatch ``m`` packs sequences
    ``sequence_offsets[m]`` to ``sequence_offsets[m + 1]``, whose token counts
    are in ``sequence_lengths``.  ``_layout`` is ``(sequence per sample,
    clipped sample lengths)``; ``sequences`` and ``position_ids`` are expanded
    from it on first read and kept.
    """

    index: int
    sample_ids: list[int]
    sequence_lengths: list[int] = field(repr=False, compare=False)
    sequence_offsets: list[int] = field(repr=False, compare=False)
    _layout: tuple[np.ndarray, np.ndarray] = field(repr=False, compare=False)

    def total_tokens(self) -> int:
        return sum(self.sequence_lengths)

    @cached_property
    def sequences(self) -> list[PackedSequence]:
        """Segment tables, one per sequence (one stable argsort by sequence)."""
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
            for tokens, start, end in zip(self.sequence_lengths, [0, *ends], ends)
        ]

    @cached_property
    def position_ids(self) -> np.ndarray:
        """RoPE position ids, restarting at every packed segment."""
        bins, clipped = self._layout
        return _positions_from_blocks(clipped[np.argsort(bins, kind="stable")])


# -- columnar collation kernels -----------------------------------------------------------------


def _scan_segment(lengths: list[int], capacity: int, base: int, bins: list[int]) -> list[int]:
    """First fit of one microbatch by scanning open residuals; returns the residuals."""
    residuals: list[int] = []
    for length in lengths:
        # The lowest-numbered open sequence that fits: a zero-length sample
        # fits sequence 0 once one is open.
        leaf = 0
        for residual in residuals:
            if residual >= length:
                break
            leaf += 1
        if leaf == len(residuals):
            residuals.append(capacity - length)
        else:
            residuals[leaf] -= length
        bins.append(base + leaf)
    return residuals


def _tree_segment(lengths: list[int], capacity: int, base: int, bins: list[int]) -> list[int]:
    """First fit of one microbatch on a max tournament tree; returns the residuals."""
    size = 1
    while size < len(lengths):
        size *= 2
    # tree[size + i] = residual capacity of sequence i (0 = not yet opened);
    # internal nodes hold subtree maxima, so descending left-first finds the
    # leftmost sequence with residual >= length in O(log sequences).
    tree = [0] * (2 * size)
    opened = 0
    for length in lengths:
        if tree[1] >= length and length > 0:
            node = 1
            while node < size:
                node *= 2
                if tree[node] < length:
                    node += 1
            leaf = node - size
        elif length == 0 and opened > 0:
            # A zero-length sample fits the first open sequence unconditionally
            # (``tokens + 0 <= capacity``).
            leaf = 0
            node = size
        else:
            leaf = opened
            node = size + leaf
            tree[node] = capacity
            opened += 1
        bins.append(base + leaf)
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
    return tree[size : size + opened]


def first_fit_bin_indices(
    lengths: np.ndarray, capacity: int, offsets: Sequence[int]
) -> tuple[np.ndarray, list[int], list[int]]:
    """First fit restarting at each microbatch (rows ``offsets[m]`` to
    ``offsets[m + 1]``): a sample goes to the *lowest-numbered* open sequence
    of its microbatch that fits it, a zero-length one to the first open one.
    Returns each sample's sequence, each sequence's token count and each
    microbatch's first sequence plus the total (numbered across microbatches).
    """
    if capacity <= 0:
        raise TransformError("max_sequence_length must be positive")
    clipped = np.minimum(lengths, capacity).tolist()
    bins: list[int] = []
    sequence_lengths: list[int] = []
    sequence_offsets = [0]
    for start, end in zip(offsets, offsets[1:]):
        pack = _scan_segment if end - start <= SCAN_MAX_SAMPLES else _tree_segment
        residuals = pack(clipped[start:end], capacity, len(sequence_lengths), bins)
        sequence_lengths += [capacity - residual for residual in residuals]
        sequence_offsets.append(len(sequence_lengths))
    return np.asarray(bins, dtype=np.intp), sequence_lengths, sequence_offsets


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
    offsets: Sequence[int] | None = None,
) -> CollatedBatch:
    """Pack a batch's microbatches (cut at ``offsets``; default: one of
    every row) with one :func:`first_fit_bin_indices` call.

    ``index`` is only echoed as ``CollatedBatch.index``, which nothing
    outside the tests reads.  ``sequences`` and ``position_ids`` are built
    when first read.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if offsets is None:
        offsets = (0, len(lengths))
    bins, sequence_lengths, sequence_offsets = first_fit_bin_indices(
        lengths, max_sequence_length, offsets
    )
    return CollatedBatch(
        index=index,
        sample_ids=list(sample_ids),
        sequence_lengths=sequence_lengths,
        sequence_offsets=sequence_offsets,
        _layout=(bins, np.minimum(lengths, max_sequence_length)),
    )
