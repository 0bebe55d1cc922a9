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

:class:`RankLayout` is the one implementation; ``tests/test_reference_pins.py``
pins its deliveries on every pp × cp × tp mesh in {1, 2}³ and a cp=3 mesh.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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


def _cp_token_counts(lengths: np.ndarray, cp_size: int) -> list[int]:
    """Tokens per CP rank from a sequence-length array, without a rank × sequence loop.

    CP rank r gets floor(len/cp) from every sequence plus one extra token
    from each sequence whose remainder exceeds r: one bincount of the
    remainders, suffix-summed.
    """
    if cp_size == 1:
        return [int(lengths.sum())]
    base = int((lengths // cp_size).sum())
    extras = np.bincount(lengths % cp_size, minlength=cp_size)[::-1].cumsum()[::-1]
    return [base + int(extra) for extra in extras[1:]] + [base]


class RankLayout:
    """One DP group's per-rank slicing rules, derived from the mesh once.

    Which ranks the group holds, which PP stages need payloads and which TP
    ranks are served by the broadcast (and from which rank) depends on the
    mesh, not on the microbatch.  :meth:`slices` sizes a microbatch's slices
    from its ``sequence_lengths`` alone.
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

    def slices(self, microbatch_index: int, sequence_lengths: np.ndarray) -> list[ParallelSlice]:
        """Per-rank delivery slices of one collated microbatch."""
        cp_tokens = _cp_token_counts(sequence_lengths, self.cp_size)
        metadata_bytes = 64 * len(sequence_lengths)
        slices = []
        for rank, slice_info, cp_share, source in self._ranks:
            tokens = 0 if cp_share is None else cp_tokens[cp_share]
            slices.append(
                ParallelSlice(
                    rank=rank,
                    microbatch_index=microbatch_index,
                    token_count=tokens,
                    payload_bytes=tokens * BYTES_PER_TOKEN + metadata_bytes,
                    metadata_only=tokens == 0,
                    replicated_from=source,
                    slice_info=dict(slice_info),
                )
            )
        return slices
