"""Microbatch-level transformations: batching, packing, RoPE.

After the Planner assigns samples to microbatches, the Data Constructor
collates them into fixed-shape inputs: *packing* merges fragmented
subsequences into complete sequences with segment masks, and RoPE position
ids provide the positional context the backbone expects.

The Data Constructor collates with :func:`collate_columns_with_positions`:
numpy kernels over a microbatch's token-length array — first-fit packing via
a max-residual tournament tree over open-bin residuals (O(samples · log bins)
instead of an O(samples · bins) linear scan).
What parallelism slicing reads (``sequence_lengths``, token totals) is
computed at collation; the per-token and per-segment outputs (``position_ids``
as slices of one cached int32 ramp, ``sequences`` from one stable argsort) are
built on first read, so a caller that only slices never pays for them.
:class:`PackingCollator` / :func:`apply_rope_positions` state the same
transformations one sample at a time over metadata objects; they are the
readable reference the kernels are specified against, and the hypothesis
tests in ``tests/test_core_assembly.py`` require both to emit byte-identical
:class:`CollatedMicrobatch` objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.samples import SampleMetadata
from repro.errors import TransformError


@dataclass
class Microbatch:
    """An uncollated microbatch: an ordered list of sample metadata.

    The orchestration layer operates on metadata-only microbatches; payloads
    are attached later by the Data Constructor when it materialises the batch.

    Token totals are computed once and cached against the sample count, so
    repeated accounting reads don't re-walk the sample list; the cache
    invalidates itself when samples are appended (the only mutation the
    batching helpers perform).
    """

    index: int
    samples: list[SampleMetadata] = field(default_factory=list)
    _token_cache: tuple[int, int, int, int] | None = field(
        default=None, repr=False, compare=False, init=False
    )

    def _totals(self) -> tuple[int, int, int, int]:
        cache = self._token_cache
        if cache is None or cache[0] != len(self.samples):
            text = sum(sample.text_tokens for sample in self.samples)
            image = sum(sample.image_tokens for sample in self.samples)
            cache = (len(self.samples), text + image, text, image)
            self._token_cache = cache
        return cache

    def total_tokens(self) -> int:
        return self._totals()[1]

    def text_tokens(self) -> int:
        return self._totals()[2]

    def image_tokens(self) -> int:
        return self._totals()[3]

    def __len__(self) -> int:
        return len(self.samples)


@dataclass
class PackedSequence:
    """One packed training sequence: token ids, segment ids and a length."""

    tokens: int
    segments: list[tuple[int, int]]  # (sample_id, token_count)


@dataclass
class CollatedMicrobatch:
    """A collated microbatch ready for parallelism transformations.

    ``sequence_lengths`` holds the per-sequence token counts of
    ``sequences`` as an ``int64`` array, populated by the collation kernels
    so downstream parallelism slicing can stay vectorized.  Token
    totals are computed once at collation time and cached; the lazy fallback
    keeps hand-built instances working.

    A kernel-built instance carries ``_layout`` — ``(bin index per sample,
    clipped sample lengths)`` — in place of ``sequences`` and
    ``position_ids``; either is expanded from it on first read and kept.
    """

    index: int
    sequences: list[PackedSequence] | None
    max_sequence_length: int
    sample_ids: list[int]
    position_ids: np.ndarray | None = None
    sequence_lengths: np.ndarray | None = field(default=None, repr=False, compare=False)
    _total_tokens: int | None = field(default=None, repr=False, compare=False)
    _layout: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    def total_tokens(self) -> int:
        if self._total_tokens is None:
            self._total_tokens = sum(sequence.tokens for sequence in self.sequences)
        return self._total_tokens


def _lazy_field(name: str, build) -> property:
    """A :class:`CollatedMicrobatch` field that ``build`` fills on first read.

    Assigned after the class body, so it stays a dataclass constructor argument;
    a value given there or set later (:func:`apply_rope_positions`) is kept.
    """

    def read(self):
        value = self.__dict__.get(name)
        if value is None and self._layout is not None:
            value = self.__dict__[name] = build(self, *self._layout)
        return value

    def write(self, value) -> None:
        self.__dict__[name] = value

    return property(read, write)


def batch_samples(samples: list[SampleMetadata], num_microbatches: int) -> list[Microbatch]:
    """Split samples into ``num_microbatches`` contiguous microbatches.

    This is the *unbalanced* default used by baseline loaders: samples are
    assigned in arrival order, which is what produces the FLOPs heatmaps of
    Fig. 3.
    """
    if num_microbatches <= 0:
        raise TransformError("num_microbatches must be positive")
    microbatches = [Microbatch(index=index) for index in range(num_microbatches)]
    per_batch = (len(samples) + num_microbatches - 1) // num_microbatches
    for position, sample in enumerate(samples):
        target = min(num_microbatches - 1, position // max(1, per_batch))
        microbatches[target].samples.append(sample)
    return microbatches


class PackingCollator:
    """Greedy first-fit packing of samples into ``max_sequence_length`` sequences.

    Packing merges fragmented subsequences into complete sequences with
    segment boundaries so that attention can be masked per segment, minimising
    the padding one sample per sequence would waste.  A sample longer
    than ``max_sequence_length`` is truncated to it.
    """

    def __init__(self, max_sequence_length: int) -> None:
        if max_sequence_length <= 0:
            raise TransformError("max_sequence_length must be positive")
        self.max_sequence_length = max_sequence_length

    def collate(self, microbatch: Microbatch) -> CollatedMicrobatch:
        sequences: list[PackedSequence] = []
        open_bins: list[PackedSequence] = []
        total_tokens = 0
        for sample in microbatch.samples:
            length = sample.total_tokens
            if length > self.max_sequence_length:
                length = self.max_sequence_length
            total_tokens += length
            placed = False
            for bin_ in open_bins:
                if bin_.tokens + length <= self.max_sequence_length:
                    bin_.tokens += length
                    bin_.segments.append((sample.sample_id, length))
                    placed = True
                    break
            if not placed:
                new_bin = PackedSequence(tokens=length, segments=[(sample.sample_id, length)])
                open_bins.append(new_bin)
                sequences.append(new_bin)
        return CollatedMicrobatch(
            index=microbatch.index,
            sequences=sequences,
            max_sequence_length=self.max_sequence_length,
            sample_ids=[sample.sample_id for sample in microbatch.samples],
            _total_tokens=total_tokens,
        )


def apply_rope_positions(collated: CollatedMicrobatch) -> CollatedMicrobatch:
    """Attach rotary position ids (restarting at each packed segment boundary).

    Only the integer position ids are materialised; the rotation frequencies
    are the trainer's.
    """
    position_rows = []
    for sequence in collated.sequences:
        positions = np.empty(sequence.tokens, dtype=np.int32)
        cursor = 0
        for _, segment_tokens in sequence.segments:
            positions[cursor : cursor + segment_tokens] = np.arange(segment_tokens, dtype=np.int32)
            cursor += segment_tokens
        position_rows.append(positions)
    collated.position_ids = (
        np.concatenate(position_rows) if position_rows else np.empty(0, dtype=np.int32)
    )
    return collated


def collate_with_positions(microbatch: Microbatch, max_sequence_length: int) -> CollatedMicrobatch:
    """Convenience helper: pack and attach RoPE positions."""
    return apply_rope_positions(PackingCollator(max_sequence_length).collate(microbatch))


# -- columnar collation kernels -----------------------------------------------------------------


def first_fit_bin_indices(lengths: np.ndarray, capacity: int) -> np.ndarray:
    """First-fit bin index per sample, in arrival order.

    Exactly the assignment :class:`PackingCollator` computes — each sample
    goes to the *lowest-numbered* open bin whose residual capacity fits it,
    opening a new bin otherwise — but the leftmost-fitting-bin query runs on
    a max tournament tree over open-bin residuals (a heap-shaped segment
    tree), so a microbatch packs in O(samples · log bins) instead of the
    linear scan's O(samples · bins).  Over-capacity samples are clipped to
    ``capacity``, :class:`PackingCollator`'s overflow rule.
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
            # (:class:`PackingCollator`'s ``tokens + 0 <= capacity`` check).
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


def _expand_sequences(
    collated: CollatedMicrobatch, bins: np.ndarray, clipped: np.ndarray
) -> list[PackedSequence]:
    """Segment tables of a kernel-built collation (one stable argsort by bin)."""
    order = np.argsort(bins, kind="stable")
    ordered_ids = [collated.sample_ids[i] for i in order.tolist()]
    ordered_lengths = clipped[order].tolist()
    ends = np.cumsum(np.bincount(bins)).tolist()
    return [
        PackedSequence(
            tokens=tokens, segments=list(zip(ordered_ids[start:end], ordered_lengths[start:end]))
        )
        for tokens, start, end in zip(collated.sequence_lengths.tolist(), [0, *ends], ends)
    ]


def _expand_positions(
    collated: CollatedMicrobatch, bins: np.ndarray, clipped: np.ndarray
) -> np.ndarray:
    """RoPE position ids of a kernel-built collation, restarting per segment."""
    return _positions_from_blocks(clipped[np.argsort(bins, kind="stable")])


CollatedMicrobatch.sequences = _lazy_field("sequences", _expand_sequences)
CollatedMicrobatch.position_ids = _lazy_field("position_ids", _expand_positions)


def collate_columns_with_positions(
    index: int,
    sample_ids: list[int],
    lengths: np.ndarray,
    max_sequence_length: int,
) -> CollatedMicrobatch:
    """Pack a microbatch straight from its token-length array.

    Packing runs :func:`first_fit_bin_indices` and fills in
    ``sequence_lengths`` and the token total, which is all that parallelism
    slicing reads.  ``sequences`` and ``position_ids`` are built
    from the bin assignment when first read.  The returned
    :class:`CollatedMicrobatch` is byte-identical to
    :func:`collate_with_positions`' output (sequences, segment tables, sample
    ids, position ids).
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    clipped = np.minimum(lengths, max_sequence_length)
    bins = first_fit_bin_indices(lengths, max_sequence_length)
    sequence_lengths = np.bincount(bins, weights=clipped).astype(np.int64)
    return CollatedMicrobatch(
        index=index,
        sequences=None,
        max_sequence_length=max_sequence_length,
        sample_ids=list(sample_ids),
        sequence_lengths=sequence_lengths,
        _total_tokens=int(sequence_lengths.sum()),
        _layout=(bins, clipped),
    )
