"""Data Constructor actors: microbatch assembly and parallelism-aware delivery.

A Data Constructor is the data sink for one consumer bucket (typically one
data-parallel group).  It pulls prepared samples from Source Loaders according
to the loading plan, performs microbatch transformations (packing,
RoPE) and parallelism transformations (CP slicing, TP broadcast exclusion, PP
metadata pruning), and serves the resulting per-rank slices to trainer
clients.  Sharing one constructor per CP/PP group is what removes the
parallelism redundancy shown in Fig. 6 / Fig. 17a.  Per step it collates its
whole bucket in one call and stages one :class:`RankDelivery` row per rank.
"""

from __future__ import annotations

from itertools import pairwise

from repro.actors.actor import Actor
from repro.core.assembly import PreparedColumns
from repro.core.plans import ModulePlan
from repro.errors import BackpressureError, PlanError
from repro.parallelism.mesh import DeviceMesh
from repro.transforms.microbatch import collate_columns_with_positions
from repro.transforms.parallelism import BYTES_PER_TOKEN, RankDelivery, RankLayout


class DataConstructor(Actor):
    """Actor assembling and delivering batches for one consumer bucket."""

    role = "data_constructor"

    #: Collation throughput: seconds of CPU per fused token (packing and
    #: tensor assembly are memory-bandwidth-bound copies).
    COLLATE_SECONDS_PER_TOKEN = 2.5e-8

    def __init__(
        self,
        bucket_index: int,
        mesh: DeviceMesh,
        dp_index: int,
        max_sequence_length: int = 8192,
        staging_capacity: int = 2,
        enforce_delivery_order: bool = True,
    ) -> None:
        super().__init__()
        if staging_capacity < 2:
            # One slot for the step being consumed plus at least one being
            # staged ahead (double buffering); anything less deadlocks the
            # pull workflow.
            raise PlanError("staging_capacity must be >= 2 (double buffering)")
        self.bucket_index = bucket_index
        self.max_sequence_length = max_sequence_length
        self.staging_capacity = staging_capacity
        self.enforce_delivery_order = enforce_delivery_order
        #: Token bytes the TP broadcast and the PP metadata rule spared
        #: their ranks, against each fetching its whole microbatch.
        self.broadcast_bytes_saved = 0
        self._pending_deliveries: dict[int, dict[int, RankDelivery]] = {}
        self._staged_bytes: dict[int, int] = {}
        self._delivered_up_to: dict[int, int] = {}
        # Adopting the first mesh (``mesh``, ``dp_index``) is a reshard with nothing staged.
        self.reshard(mesh, dp_index)

    # -- construction --------------------------------------------------------------------------

    def construct(
        self,
        step: int,
        module_plan: ModulePlan,
        prepared: PreparedColumns,
    ) -> dict[str, float]:
        """Build this bucket's microbatches for ``step`` from prepared samples.

        ``prepared`` is the :class:`PreparedColumns` hand-off the Source
        Loaders published by reference.  Returns timing/size information for
        the step.

        Staging is bounded: at most ``staging_capacity`` steps may be held at
        once, and a full queue raises :class:`BackpressureError` so the
        prefetching pipeline throttles instead of growing without bound.
        """
        if step in self._pending_deliveries:
            raise PlanError(
                f"constructor {self.actor_name!r} already staged step {step}"
            )
        if len(self._pending_deliveries) >= self.staging_capacity:
            raise BackpressureError(
                f"constructor {self.actor_name!r} staging queue is full "
                f"({self.staging_capacity} steps); release a step first"
            )
        offsets = module_plan.bucket_offsets(self.bucket_index)
        first = offsets[0]
        bucket_ids = module_plan.rows.sample_ids[first : offsets[-1]]
        rows, missing = prepared.lookup(bucket_ids)
        if missing:
            raise PlanError(
                f"constructor {self.actor_name!r}: missing prepared samples "
                f"{missing[:5]}"
            )
        # Slicing reads sequence lengths only: no per-token field is built here.
        collated = collate_columns_with_positions(
            self.bucket_index,
            bucket_ids.tolist(),
            prepared.total_tokens[rows],
            self.max_sequence_length,
            [offset - first for offset in offsets],
        )
        deliveries = self._rank_layout.deliveries(
            collated.sequence_lengths, collated.sequence_offsets
        )
        collate_seconds = 0.0
        full_bytes = []
        for start, end in pairwise(collated.sequence_offsets):
            tokens = sum(collated.sequence_lengths[start:end])
            collate_seconds += tokens * self.COLLATE_SECONDS_PER_TOKEN
            full_bytes.append(tokens * BYTES_PER_TOKEN)
        for delivery in deliveries:
            for full, tokens, payload in zip(full_bytes, delivery.token_counts, delivery.payload_bytes):
                if delivery.replicated_from is not None or tokens == 0:
                    self.broadcast_bytes_saved += max(0, full - payload)
        self._pending_deliveries[step] = {delivery.rank: delivery for delivery in deliveries}
        staged_bytes = self._staged_bytes[step] = sum(map(RankDelivery.total_payload_bytes, deliveries))
        self.ledger.charge("constructed_batch", staged_bytes)
        return {
            "collate_seconds": collate_seconds,
            "staged_bytes": float(staged_bytes),
            "num_microbatches": float(module_plan.num_microbatches),
        }

    # -- delivery ---------------------------------------------------------------------------------

    def get_batch(self, step: int, rank: int) -> RankDelivery:
        """A trainer client pulls its slices for ``step``.

        With ``enforce_delivery_order`` (set at ``prefetch_depth >= 1``)
        delivery is strictly in step order per rank: once a rank has
        received step ``s`` it may only request steps ``> s``, so prefetched
        steps can never be consumed out of order or twice.  Depth 0 disables
        the guard to keep random step access.
        """
        step_deliveries = self._pending_deliveries.get(step)
        if step_deliveries is None:
            raise PlanError(f"constructor {self.actor_name!r} has no data staged for step {step}")
        delivery = step_deliveries.get(rank)
        if delivery is None:
            raise PlanError(
                f"constructor {self.actor_name!r} (bucket {self.bucket_index}) "
                f"holds no data for rank {rank} at step {step}"
            )
        last = self._delivered_up_to.get(rank)
        if self.enforce_delivery_order and last is not None and step <= last:
            raise PlanError(
                f"constructor {self.actor_name!r}: rank {rank} already consumed step "
                f"{last}; out-of-order request for step {step}"
            )
        self._delivered_up_to[rank] = max(step, last) if last is not None else step
        return delivery

    def staging_backlog(self) -> int:
        """How many steps are currently staged (bounded by ``staging_capacity``)."""
        return len(self._pending_deliveries)

    def ranks_served(self, step: int) -> list[int]:
        return sorted(self._pending_deliveries.get(step, {}))

    def release_step(self, step: int) -> None:
        """Free the memory staged for a completed step."""
        self._pending_deliveries.pop(step, None)
        self.ledger.release("constructed_batch", self._staged_bytes.pop(step, 0))

    def release_steps_below(self, step: int) -> int:
        """Free every staged step older than ``step``; returns how many.

        The pull workflow calls this after delivering ``step`` so skipped step
        numbers (planner replay, curriculum jumps) cannot leak staging slots
        in the bounded queue.
        """
        released = 0
        for staged_step in [s for s in self._pending_deliveries if s < step]:
            self.release_step(staged_step)
            released += 1
        return released

    def staged_steps(self) -> list[int]:
        return sorted(self._pending_deliveries)

    # -- resharding support -------------------------------------------------------------------------

    def reshard(self, mesh: DeviceMesh, dp_index: int) -> None:
        """Adopt a new device mesh (elastic resharding, Sec. 6.1).

        Steps staged for the old topology are dropped and their memory
        released, not re-expanded: the trainer re-requests data after a
        reshard, and the next construct() slices for the new mesh.
        """
        self.mesh = mesh
        self.dp_index = dp_index
        self._rank_layout = RankLayout(mesh, dp_index)
        for step in list(self._pending_deliveries):
            self.release_step(step)
        # Rank numbering changed with the topology; the in-order ledger
        # restarts because the trainer re-requests data after a reshard.
        self._delivered_up_to.clear()

    # -- checkpointing --------------------------------------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "bucket_index": self.bucket_index,
            "dp_index": self.dp_index,
            "staged_steps": self.staged_steps(),
        }

    def load_state_dict(self, state: dict) -> None:
        if state.get("bucket_index") != self.bucket_index:
            raise PlanError("constructor checkpoint bucket mismatch")

    def heartbeat_payload(self) -> dict:
        return {"staged_steps": len(self._pending_deliveries), "bucket": self.bucket_index}
