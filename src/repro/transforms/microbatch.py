"""Microbatch-level transformations: batching, packing, padding, RoPE.

After the Planner assigns samples to microbatches, the Data Constructor
collates them into fixed-shape inputs: *packing* merges fragmented
subsequences into complete sequences with segment masks, *padding* aligns
variable-length sequences with dummy tokens, and RoPE position ids provide the
positional context the backbone expects.

The Data Constructor collates with :func:`collate_columns_with_positions`:
numpy kernels over a microbatch's token-length array — first-fit packing via
a max-residual tournament tree over open-bin residuals (O(samples · log bins)
instead of an O(samples · bins) linear scan), padding and RoPE position ids
via ``cumsum``/``repeat`` broadcasts, and segment tables built from int
arrays.  :class:`PackingCollator` / :class:`PaddingCollator` /
:func:`apply_rope_positions` state the same transformations one sample at a
time over metadata objects; they are the readable reference the kernels are
specified against, and the hypothesis tests in ``tests/test_core_assembly.py``
require both to emit byte-identical :class:`CollatedMicrobatch` objects.
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
        default=None, repr=False, compare=False
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
    padding: int = 0

    @property
    def payload_tokens(self) -> int:
        return self.tokens - self.padding


@dataclass
class CollatedMicrobatch:
    """A collated microbatch ready for parallelism transformations.

    ``sequence_lengths`` holds the per-sequence token counts of
    ``sequences`` as an ``int64`` array, populated by the collation kernels
    so downstream parallelism slicing can stay vectorized.  Token
    totals are computed once at collation time and cached; the lazy fallback
    keeps hand-built instances working.
    """

    index: int
    sequences: list[PackedSequence]
    max_sequence_length: int
    sample_ids: list[int]
    position_ids: np.ndarray | None = None
    collation: str = "packed"
    sequence_lengths: np.ndarray | None = field(default=None, repr=False, compare=False)
    _total_tokens: int | None = field(default=None, repr=False, compare=False)
    _padding_tokens: int | None = field(default=None, repr=False, compare=False)

    def total_tokens(self) -> int:
        if self._total_tokens is None:
            self._total_tokens = sum(sequence.tokens for sequence in self.sequences)
        return self._total_tokens

    def padding_tokens(self) -> int:
        if self._padding_tokens is None:
            self._padding_tokens = sum(sequence.padding for sequence in self.sequences)
        return self._padding_tokens

    def padding_fraction(self) -> float:
        total = self.total_tokens()
        return self.padding_tokens() / total if total else 0.0

    def tensor_bytes(self, bytes_per_token: int = 4) -> int:
        """Approximate memory footprint of the collated token tensor."""
        return self.total_tokens() * bytes_per_token


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
    padding waste relative to one-sample-per-sequence padding.
    """

    def __init__(self, max_sequence_length: int, allow_overflow: bool = True) -> None:
        if max_sequence_length <= 0:
            raise TransformError("max_sequence_length must be positive")
        self.max_sequence_length = max_sequence_length
        self.allow_overflow = allow_overflow

    def collate(self, microbatch: Microbatch) -> CollatedMicrobatch:
        sequences: list[PackedSequence] = []
        open_bins: list[PackedSequence] = []
        total_tokens = 0
        for sample in microbatch.samples:
            length = sample.total_tokens
            if length > self.max_sequence_length:
                if not self.allow_overflow:
                    raise TransformError(
                        f"sample {sample.sample_id} has {length} tokens, exceeding the "
                        f"{self.max_sequence_length}-token sequence limit"
                    )
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
            collation="packed",
            _total_tokens=total_tokens,
            _padding_tokens=0,
        )


class PaddingCollator:
    """One sample per sequence, padded up to the longest sample in the batch."""

    def __init__(self, max_sequence_length: int | None = None) -> None:
        self.max_sequence_length = max_sequence_length

    def collate(self, microbatch: Microbatch) -> CollatedMicrobatch:
        if not microbatch.samples:
            return CollatedMicrobatch(
                index=microbatch.index,
                sequences=[],
                max_sequence_length=self.max_sequence_length or 0,
                sample_ids=[],
                collation="padded",
                _total_tokens=0,
                _padding_tokens=0,
            )
        lengths = [sample.total_tokens for sample in microbatch.samples]
        target = max(lengths)
        if self.max_sequence_length is not None:
            target = min(max(target, 1), self.max_sequence_length)
        sequences = []
        padding_tokens = 0
        for sample, length in zip(microbatch.samples, lengths):
            clipped = min(length, target)
            padding_tokens += target - clipped
            sequences.append(
                PackedSequence(
                    tokens=target,
                    segments=[(sample.sample_id, clipped)],
                    padding=target - clipped,
                )
            )
        return CollatedMicrobatch(
            index=microbatch.index,
            sequences=sequences,
            max_sequence_length=target,
            sample_ids=[sample.sample_id for sample in microbatch.samples],
            collation="padded",
            _total_tokens=target * len(sequences),
            _padding_tokens=padding_tokens,
        )


def apply_rope_positions(collated: CollatedMicrobatch, theta: float = 10000.0) -> CollatedMicrobatch:
    """Attach rotary position ids (restarting at each packed segment boundary).

    The ``theta`` base is recorded so downstream consumers can reconstruct the
    rotation frequencies; only the integer position ids are materialised here.
    """
    if theta <= 0:
        raise TransformError("RoPE theta must be positive")
    position_rows = []
    for sequence in collated.sequences:
        positions = np.empty(sequence.tokens, dtype=np.int32)
        cursor = 0
        for _, segment_tokens in sequence.segments:
            positions[cursor : cursor + segment_tokens] = np.arange(segment_tokens, dtype=np.int32)
            cursor += segment_tokens
        if cursor < sequence.tokens:
            positions[cursor:] = 0  # padding positions
        position_rows.append(positions)
    collated.position_ids = (
        np.concatenate(position_rows) if position_rows else np.empty(0, dtype=np.int32)
    )
    return collated


def collate_with_positions(
    microbatch: Microbatch, max_sequence_length: int, packing: bool = True
) -> CollatedMicrobatch:
    """Convenience helper: collate (packed or padded) and attach RoPE positions."""
    collator = (
        PackingCollator(max_sequence_length) if packing else PaddingCollator(max_sequence_length)
    )
    return apply_rope_positions(collator.collate(microbatch))


# -- columnar collation kernels -----------------------------------------------------------------


def first_fit_bin_indices(
    lengths: np.ndarray, capacity: int, allow_overflow: bool = True
) -> np.ndarray:
    """First-fit bin index per sample, in arrival order.

    Exactly the assignment :class:`PackingCollator` computes — each sample
    goes to the *lowest-numbered* open bin whose residual capacity fits it,
    opening a new bin otherwise — but the leftmost-fitting-bin query runs on
    a max tournament tree over open-bin residuals (a heap-shaped segment
    tree), so a microbatch packs in O(samples · log bins) instead of the
    linear scan's O(samples · bins).  Over-capacity samples are clipped to
    ``capacity`` (or rejected when ``allow_overflow`` is false), mirroring
    :class:`PackingCollator`'s overflow rule.
    """
    if capacity <= 0:
        raise TransformError("max_sequence_length must be positive")
    count = len(lengths)
    if count == 0:
        return np.empty(0, dtype=np.intp)
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


def _positions_from_blocks(block_lengths: np.ndarray, block_is_padding: np.ndarray) -> np.ndarray:
    """Position ids for concatenated blocks: 0..len-1 per block, 0 on padding."""
    total = int(block_lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int32)
    if not block_is_padding.any():
        # Fast path (packed mode): one int32 cumsum over a delta array — a 1
        # per token, with a negative jump at each block start resetting the
        # running position to 0.  No O(total)-sized repeat()s.
        lens = block_lengths[block_lengths > 0]
        deltas = np.ones(total, dtype=np.int32)
        deltas[0] = 0
        if len(lens) > 1:
            starts = np.cumsum(lens[:-1])
            deltas[starts] = 1 - lens[:-1]
        return np.cumsum(deltas, dtype=np.int32)
    starts = np.concatenate([[0], np.cumsum(block_lengths)[:-1]])
    positions = np.arange(total, dtype=np.int64) - np.repeat(starts, block_lengths)
    positions[np.repeat(block_is_padding, block_lengths)] = 0
    return positions.astype(np.int32)


def collate_columns_with_positions(
    index: int,
    sample_ids: list[int],
    lengths: np.ndarray,
    max_sequence_length: int,
    packing: bool = True,
    allow_overflow: bool = True,
) -> CollatedMicrobatch:
    """Collate a microbatch straight from its token-length array.

    Packing runs :func:`first_fit_bin_indices`, padding is a clip/subtract,
    and RoPE position ids come from one global ``arange`` minus repeated
    block starts.  The returned :class:`CollatedMicrobatch` is byte-identical
    to :func:`collate_with_positions`' output (sequences, segment tables,
    sample ids, position ids) and additionally carries ``sequence_lengths``
    so parallelism slicing can stay on int arrays.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if not allow_overflow and len(lengths) and int(lengths.max()) > max_sequence_length:
        worst = int(np.argmax(lengths > max_sequence_length))
        raise TransformError(
            f"sample {sample_ids[worst]} has {int(lengths[worst])} tokens, exceeding "
            f"the {max_sequence_length}-token sequence limit"
        )
    if len(lengths) == 0:
        collated = CollatedMicrobatch(
            index=index,
            sequences=[],
            max_sequence_length=max_sequence_length if packing else (max_sequence_length or 0),
            sample_ids=[],
            position_ids=np.empty(0, dtype=np.int32),
            collation="packed" if packing else "padded",
            sequence_lengths=np.empty(0, dtype=np.int64),
            _total_tokens=0,
            _padding_tokens=0,
        )
        return collated
    clipped = np.minimum(lengths, max_sequence_length)
    if packing:
        bins = first_fit_bin_indices(lengths, max_sequence_length)
        num_bins = int(bins.max()) + 1
        order = np.argsort(bins, kind="stable")
        ordered_lengths = clipped[order]
        seq_tokens = np.bincount(bins, weights=None, minlength=num_bins)
        packed_tokens = np.bincount(bins, weights=clipped, minlength=num_bins).astype(np.int64)
        boundaries = np.concatenate([[0], np.cumsum(seq_tokens)]).astype(np.intp)
        ordered_ids = [sample_ids[i] for i in order.tolist()]
        ordered_lengths_list = ordered_lengths.tolist()
        sequences = [
            PackedSequence(
                tokens=int(packed_tokens[bin_index]),
                segments=list(
                    zip(
                        ordered_ids[boundaries[bin_index] : boundaries[bin_index + 1]],
                        ordered_lengths_list[boundaries[bin_index] : boundaries[bin_index + 1]],
                    )
                ),
            )
            for bin_index in range(num_bins)
        ]
        position_ids = _positions_from_blocks(
            ordered_lengths, np.zeros(len(ordered_lengths), dtype=bool)
        )
        return CollatedMicrobatch(
            index=index,
            sequences=sequences,
            max_sequence_length=max_sequence_length,
            sample_ids=list(sample_ids),
            position_ids=position_ids,
            collation="packed",
            sequence_lengths=packed_tokens,
            _total_tokens=int(packed_tokens.sum()),
            _padding_tokens=0,
        )
    target = int(lengths.max())
    if max_sequence_length is not None:
        target = min(max(target, 1), max_sequence_length)
    clipped = np.minimum(lengths, target)
    paddings = target - clipped
    clipped_list = clipped.tolist()
    padding_list = paddings.tolist()
    sequences = [
        PackedSequence(
            tokens=target,
            segments=[(sample_id, seg)],
            padding=pad,
        )
        for sample_id, seg, pad in zip(sample_ids, clipped_list, padding_list)
    ]
    # Interleave (segment, padding) blocks per sequence for the position kernel.
    block_lengths = np.empty(2 * len(clipped), dtype=np.int64)
    block_lengths[0::2] = clipped
    block_lengths[1::2] = paddings
    block_is_padding = np.zeros(2 * len(clipped), dtype=bool)
    block_is_padding[1::2] = True
    position_ids = _positions_from_blocks(block_lengths, block_is_padding)
    return CollatedMicrobatch(
        index=index,
        sequences=sequences,
        max_sequence_length=target,
        sample_ids=list(sample_ids),
        position_ids=position_ids,
        collation="padded",
        sequence_lengths=np.full(len(clipped), target, dtype=np.int64),
        _total_tokens=target * len(sequences),
        _padding_tokens=int(paddings.sum()),
    )
