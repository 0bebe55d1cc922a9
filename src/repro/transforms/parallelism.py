"""Parallelism transformations: map collated microbatches to per-rank inputs.

Hybrid parallelism determines which fraction of a collated microbatch each
trainer rank actually needs: DP ranks get disjoint minibatches, CP ranks get
contiguous slices of each sequence, TP ranks replicate the TP-0 input (or
receive it via broadcast), and PP stages beyond the first need only metadata
(shapes, sequence lengths) rather than token payloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import TransformError
from repro.parallelism.mesh import DeviceMesh
from repro.transforms.microbatch import CollatedMicrobatch

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


def context_parallel_slices(
    collated: CollatedMicrobatch, cp_size: int
) -> list[dict[str, object]]:
    """Slice every sequence of a collated microbatch into ``cp_size`` chunks.

    Each CP rank receives a contiguous 1/cp_size share of every sequence
    (ring-attention style); the slices jointly cover the full microbatch so
    only one loader-side copy of the data is needed.
    """
    if cp_size <= 0:
        raise TransformError("cp_size must be positive")
    lengths = collated.sequence_lengths
    if lengths is not None:
        return [
            {
                "cp_rank": cp_rank,
                "token_count": tokens,
                "payload_bytes": tokens * BYTES_PER_TOKEN,
            }
            for cp_rank, tokens in enumerate(_cp_token_counts(lengths, cp_size))
        ]
    slices = []
    for cp_rank in range(cp_size):
        tokens = 0
        for sequence in collated.sequences:
            chunk = sequence.tokens // cp_size
            remainder = sequence.tokens % cp_size
            tokens += chunk + (1 if cp_rank < remainder else 0)
        slices.append(
            {
                "cp_rank": cp_rank,
                "token_count": tokens,
                "payload_bytes": tokens * BYTES_PER_TOKEN,
            }
        )
    return slices


def tensor_parallel_replicas(token_count: int, tp_size: int) -> list[dict[str, object]]:
    """Describe what each TP rank receives.

    Only TP-0 fetches from the loader; the rest receive the tensor over the
    trainer-side TP broadcast (zero loader-side bytes).
    """
    if tp_size <= 0:
        raise TransformError("tp_size must be positive")
    replicas = []
    for tp_rank in range(tp_size):
        fetches = tp_rank == 0
        replicas.append(
            {
                "tp_rank": tp_rank,
                "token_count": token_count if fetches else 0,
                "payload_bytes": token_count * BYTES_PER_TOKEN if fetches else 0,
                "via_broadcast": (not fetches),
            }
        )
    return replicas


def pipeline_stage_view(
    collated: CollatedMicrobatch, pp_rank: int, pp_size: int
) -> dict[str, object]:
    """What a PP stage needs from a microbatch.

    Only the first stage (PP0) consumes token payloads; later stages receive
    activations from their predecessor over P2P and need only shape/length
    metadata (plus labels on the last stage), which is the redundancy the Data
    Constructor exploits in Fig. 6.
    """
    if not (0 <= pp_rank < pp_size):
        raise TransformError(f"pp_rank {pp_rank} out of range for pp_size {pp_size}")
    tokens = collated.total_tokens()
    if pp_rank == 0:
        return {
            "pp_rank": pp_rank,
            "needs_payload": True,
            "token_count": tokens,
            "payload_bytes": tokens * BYTES_PER_TOKEN,
            "metadata_bytes": 64 * len(collated.sequences),
        }
    needs_labels = pp_rank == pp_size - 1
    metadata_bytes = 64 * len(collated.sequences)
    label_bytes = tokens * BYTES_PER_TOKEN if needs_labels else 0
    return {
        "pp_rank": pp_rank,
        "needs_payload": needs_labels,
        "token_count": tokens if needs_labels else 0,
        "payload_bytes": label_bytes,
        "metadata_bytes": metadata_bytes,
    }


def build_rank_slices(collated: CollatedMicrobatch, mesh: DeviceMesh) -> list[ParallelSlice]:
    """Expand one collated microbatch into per-rank delivery slices.

    The expansion walks the mesh in rank order as if every DP group received
    this microbatch: each (PP, CP, TP) coordinate receives a slice sized
    according to the stage/slice/broadcast rules above, with TP ranks past
    the first served by the TP broadcast and every CP rank fetching its own
    share.  This is the "parallelism
    transformation" a Data Constructor applies before delivery.
    """
    slices: list[ParallelSlice] = []
    cp_size = mesh.size("CP")
    tp_size = mesh.size("TP")
    pp_size = mesh.size("PP")
    cp_slices = context_parallel_slices(collated, cp_size)
    for coord in mesh.coordinates():
        rank = coord.rank
        stage = pipeline_stage_view(collated, coord.pp, pp_size)
        if not stage["needs_payload"]:
            slices.append(
                ParallelSlice(
                    rank=rank,
                    microbatch_index=collated.index,
                    token_count=0,
                    payload_bytes=int(stage["metadata_bytes"]),
                    metadata_only=True,
                )
            )
            continue
        token_count = int(cp_slices[coord.cp]["token_count"])
        tp_replicas = tensor_parallel_replicas(token_count, tp_size)
        tp_share = tp_replicas[coord.tp]
        slices.append(
            ParallelSlice(
                rank=rank,
                microbatch_index=collated.index,
                token_count=int(tp_share["token_count"]),
                payload_bytes=int(tp_share["payload_bytes"]) + int(stage["metadata_bytes"]),
                metadata_only=int(tp_share["token_count"]) == 0,
                replicated_from=mesh.ranks_where(dp=coord.dp, cp=coord.cp, pp=coord.pp)[0]
                if tp_share["via_broadcast"]
                else None,
                slice_info={"cp_rank": coord.cp, "tp_rank": coord.tp, "pp_rank": coord.pp},
            )
        )
    return slices


class RankLayout:
    """The mesh walk of :func:`build_rank_slices` for one DP group, done once.

    Which ranks the group holds, which PP stages need payloads and which TP
    ranks are served by the broadcast (and from which rank) depends on the
    mesh, not on the microbatch.  :meth:`slices` sizes a microbatch's
    slices from its ``sequence_lengths`` alone and returns what
    :func:`build_rank_slices` returns for the group's ranks of a collation
    with those lengths.
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
