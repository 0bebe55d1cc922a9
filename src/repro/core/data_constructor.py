"""Data Constructor actors: microbatch assembly and parallelism-aware delivery.

A Data Constructor is the data sink for one consumer bucket (typically one
data-parallel group).  It pulls prepared samples from Source Loaders according
to the loading plan, performs microbatch transformations (packing,
RoPE) and parallelism transformations (CP slicing, TP broadcast exclusion, PP
metadata pruning), and serves the resulting per-rank slices to trainer
clients.  Sharing one constructor per CP/PP group is what removes the
parallelism redundancy shown in Fig. 6 / Fig. 17a.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.actors.actor import Actor
from repro.core.assembly import PreparedColumns
from repro.core.plans import ModulePlan
from repro.errors import BackpressureError, PlanError
from repro.parallelism.mesh import DeviceMesh
from repro.transforms.microbatch import collate_columns_with_positions
from repro.transforms.parallelism import BYTES_PER_TOKEN, ParallelSlice, RankLayout


@dataclass
class RankDelivery:
    """Everything one trainer rank receives for one step.

    Byte/token totals are summed once and cached against the slice count, so
    per-step accounting reads don't re-walk the slice list."""

    rank: int
    slices: list[ParallelSlice] = field(default_factory=list, init=False)
    _totals: tuple[int, int, int] | None = field(default=None, repr=False, compare=False, init=False)

    def _sum(self) -> tuple[int, int, int]:
        cache = self._totals
        if cache is None or cache[0] != len(self.slices):
            cache = (
                len(self.slices),
                sum(piece.payload_bytes for piece in self.slices),
                sum(piece.token_count for piece in self.slices),
            )
            self._totals = cache
        return cache

    def total_payload_bytes(self) -> int:
        return self._sum()[1]

    def total_tokens(self) -> int:
        return self._sum()[2]


@dataclass
class ConstructorStats:
    microbatches_built: int = 0
    samples_consumed: int = 0
    collate_seconds: float = 0.0
    deliveries: int = 0
    broadcast_bytes_saved: int = 0


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
        self.stats = ConstructorStats()
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
        assignments = module_plan.bucket_assignments(self.bucket_index)
        if not assignments:
            raise PlanError(
                f"constructor {self.actor_name!r}: plan has no microbatches for bucket "
                f"{self.bucket_index}"
            )
        ids = [assignment.sample_ids() for assignment in assignments]
        rows, missing = prepared.lookup([sample_id for chunk in ids for sample_id in chunk])
        if missing:
            raise PlanError(
                f"constructor {self.actor_name!r}: missing prepared samples "
                f"{missing[:5]}"
            )
        lengths = prepared.total_tokens[rows]
        collate_seconds = 0.0
        staged_bytes = 0
        offset = 0
        deliveries: dict[int, RankDelivery] = {}
        for assignment, chunk in zip(assignments, ids):
            # Slicing reads lengths and totals only; the collation's per-token
            # and per-segment fields are built on first read, i.e. not here.
            collated = collate_columns_with_positions(
                assignment.microbatch_index,
                chunk,
                lengths[offset : offset + len(chunk)],
                self.max_sequence_length,
            )
            offset += len(chunk)
            collate_seconds += collated.total_tokens() * self.COLLATE_SECONDS_PER_TOKEN
            full_bytes = collated.total_tokens() * BYTES_PER_TOKEN
            for piece in self._rank_layout.slices(collated.index, collated.sequence_lengths):
                deliveries.setdefault(piece.rank, RankDelivery(rank=piece.rank)).slices.append(piece)
                staged_bytes += piece.payload_bytes
                if piece.replicated_from is not None or piece.metadata_only:
                    self.stats.broadcast_bytes_saved += max(0, full_bytes - piece.payload_bytes)
            self.stats.microbatches_built += 1
            self.stats.samples_consumed += len(assignment.rows)

        self._pending_deliveries[step] = deliveries
        self._staged_bytes[step] = staged_bytes
        self.ledger.charge("constructed_batch", staged_bytes)
        self.stats.collate_seconds += collate_seconds
        return {
            "collate_seconds": collate_seconds,
            "staged_bytes": float(staged_bytes),
            "num_microbatches": float(len(assignments)),
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
        self.stats.deliveries += 1
        return delivery

    def staging_backlog(self) -> int:
        """How many steps are currently staged (bounded by ``staging_capacity``)."""
        return len(self._pending_deliveries)

    def ranks_served(self, step: int) -> list[int]:
        return sorted(self._pending_deliveries.get(step, {}))

    def release_step(self, step: int) -> None:
        """Free the memory staged for a completed step."""
        self._pending_deliveries.pop(step, None)
        staged = self._staged_bytes.pop(step, 0)
        self.ledger.release("constructed_batch", staged)

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
