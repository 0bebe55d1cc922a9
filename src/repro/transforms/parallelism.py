"""Parallelism transformations: map collated microbatches to per-rank inputs.

Hybrid parallelism determines which fraction of a collated microbatch each
trainer rank actually needs (Fig. 6):

- DP ranks get disjoint minibatches: a Data Constructor serves one DP group.
- CP rank ``r`` fetches ``len // cp + (r < len % cp)`` tokens of every
  sequence, so the CP shares cover the microbatch once.
- Only TP rank 0 fetches; the other TP ranks of its (PP, CP) coordinate
  receive the tensor over the trainer-side broadcast (zero loader bytes).
- Only the first and last PP stages need tokens (inputs and labels); the
  stages between need only the 64-byte-per-sequence shape metadata, which
  every rank receives.

:class:`RankLayout` is the one implementation: one :class:`RankDelivery` row
per rank and batch, whose :class:`ParallelSlice` objects are built only when
read.  ``tests/test_reference_pins.py`` pins its deliveries on every pp × cp
× tp mesh in {1, 2}³ and a cp=3 mesh.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import pairwise

from repro.parallelism.mesh import DeviceMesh

#: Bytes of one delivered token id.
BYTES_PER_TOKEN = 4


@dataclass(frozen=True)
class ParallelSlice:
    """The portion of a collated microbatch destined for one trainer rank."""

    rank: int
    microbatch_index: int
    token_count: int
    payload_bytes: int
    metadata_only: bool = False
    replicated_from: int | None = None
    slice_info: dict = field(default_factory=dict, compare=False, hash=False)


@dataclass
class RankDelivery:
    """Everything one trainer rank receives for one step: a token count and
    payload bytes per microbatch, and the rank's broadcast source and
    ``slice_info``.  ``slices`` builds its :class:`ParallelSlice` objects on
    each read."""

    rank: int
    token_counts: list[int] = field(repr=False)
    payload_bytes: list[int] = field(repr=False)
    replicated_from: int | None
    slice_info: dict = field(repr=False)

    @property
    def slices(self) -> list[ParallelSlice]:
        return [
            ParallelSlice(
                rank=self.rank, microbatch_index=index, token_count=tokens,
                payload_bytes=payload, metadata_only=tokens == 0,
                replicated_from=self.replicated_from, slice_info=dict(self.slice_info),
            )
            for index, (tokens, payload) in enumerate(zip(self.token_counts, self.payload_bytes))
        ]

    def total_payload_bytes(self) -> int:
        return sum(self.payload_bytes)

    def total_tokens(self) -> int:
        return sum(self.token_counts)


def _cp_token_counts(lengths: list[int], cp_size: int) -> list[int]:
    """Tokens per CP rank of one microbatch from its sequence lengths: rank
    r gets ``len // cp + (r < len % cp)`` tokens of every sequence."""
    if cp_size == 1:
        return [sum(lengths)]
    base = sum(length // cp_size for length in lengths)
    remainders = [length % cp_size for length in lengths]
    return [base + sum(rank < remainder for remainder in remainders) for rank in range(cp_size)]


class RankLayout:
    """One DP group's per-rank slicing rules, derived from the mesh once.

    Which ranks the group holds, which PP stages need payloads and which TP
    ranks are served by the broadcast (and from which rank) depends on the
    mesh, not on the microbatch.  :meth:`deliveries` sizes every rank's
    share of a batch from its sequence lengths alone.
    """

    def __init__(self, mesh: DeviceMesh, dp_index: int) -> None:
        self.cp_size = mesh.size("CP")
        payload_stages = (0, mesh.size("PP") - 1)
        tp_heads: dict[tuple[int, int], int] = {}
        #: Per rank: (rank, slice_info, CP index whose share it fetches or
        #: None, rank it is broadcast from or None).
        self._ranks: list[tuple[int, dict, int | None, int | None]] = []
        for rank in mesh.ranks_where(dp=dp_index):
            coord = mesh.coordinate(rank)
            head = tp_heads.setdefault((coord.pp, coord.cp), rank)
            if coord.pp not in payload_stages:
                self._ranks.append((rank, {}, None, None))  # shape metadata only
                continue
            info = {"cp_rank": coord.cp, "tp_rank": coord.tp, "pp_rank": coord.pp}
            if coord.tp > 0:  # served by the TP broadcast from the head
                self._ranks.append((rank, info, None, head))
            else:
                self._ranks.append((rank, info, coord.cp, None))

    def deliveries(
        self, sequence_lengths: list[int], sequence_offsets: list[int]
    ) -> list[RankDelivery]:
        """Every rank's delivery of a collated batch whose microbatch ``m`` is
        sequences ``sequence_offsets[m]`` to ``sequence_offsets[m + 1]``."""
        bounds = list(pairwise(sequence_offsets))
        cp_tokens = [
            _cp_token_counts(sequence_lengths[start:end], self.cp_size) for start, end in bounds
        ]
        metadata_bytes = [64 * (end - start) for start, end in bounds]
        deliveries = []
        for rank, slice_info, cp_share, source in self._ranks:
            tokens = [0] * len(bounds) if cp_share is None else [row[cp_share] for row in cp_tokens]
            payloads = [count * BYTES_PER_TOKEN + meta for count, meta in zip(tokens, metadata_bytes)]
            deliveries.append(RankDelivery(rank, tokens, payloads, source, dict(slice_info)))
        return deliveries
