"""Elastic resharding: adapting the data plane to training-topology changes.

LFM training jobs change GPU allocations at runtime — elastic scale up/down,
redeployment after failures, or parallelism re-planning.  MegaScale-Data
listens for a notification from the training framework and (1) rebuilds the
ClientPlaceTree for the new device mesh, (2) recomputes how consumer buckets
map to Data Constructors and (3) fast-reshards resident constructor data so
delivery continues without restarting the loaders (Sec. 6.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.data_constructor import DataConstructor
from repro.core.deploy import spawn_constructor
from repro.core.place_tree import ClientPlaceTree
from repro.errors import ReproError, ReshardingError
from repro.parallelism.mesh import DeviceMesh


@dataclass(frozen=True)
class ReshardNotification:
    """Notification emitted by the training framework on a topology change."""

    step: int
    new_mesh: DeviceMesh


@dataclass
class ReshardReport:
    """What a resharding pass changed."""

    step: int
    old_world_size: int
    new_world_size: int
    constructors_before: int
    constructors_required: int
    constructors_added: int
    constructors_retired: int
    reassigned_buckets: dict[str, int] = field(default_factory=dict)
    resharding_latency_s: float = 0.0


class ElasticResharder:
    """Applies topology-change notifications to the data plane."""

    #: Latency charged per constructor whose resident data is repartitioned.
    PER_CONSTRUCTOR_RESHARD_SECONDS = 0.05

    def __init__(self, tree: ClientPlaceTree) -> None:
        self.tree = tree

    def plan_reshard(
        self, notification: ReshardNotification, constructors: dict[str, DataConstructor]
    ) -> ReshardReport:
        """Compute the constructor-to-bucket reassignment for a new mesh."""
        new_mesh = notification.new_mesh
        if new_mesh.world_size <= 0:
            raise ReshardingError("new mesh has no ranks")
        new_tree = ClientPlaceTree(new_mesh)
        for axis in self.tree.broadcast_axes:
            new_tree.mark_broadcast(axis)
        required = new_tree.num_consumers("DP")
        existing = list(constructors)
        reassigned: dict[str, int] = {}
        for index, name in enumerate(existing[:required]):
            reassigned[name] = index
        added = max(0, required - len(existing))
        retired = max(0, len(existing) - required)
        latency = self.PER_CONSTRUCTOR_RESHARD_SECONDS * max(len(existing), required)
        report = ReshardReport(
            step=notification.step,
            old_world_size=self.tree.mesh.world_size,
            new_world_size=new_mesh.world_size,
            constructors_before=len(existing),
            constructors_required=required,
            constructors_added=added,
            constructors_retired=retired,
            reassigned_buckets=reassigned,
            resharding_latency_s=latency,
        )
        return report

    def reshard(
        self,
        notification: ReshardNotification,
        constructors: dict[str, DataConstructor],
    ) -> ReshardReport:
        """Apply the reshard in place: update the tree and reshard constructors."""
        report = self.plan_reshard(notification, constructors)
        new_tree = ClientPlaceTree(notification.new_mesh)
        for axis in self.tree.broadcast_axes:
            new_tree.mark_broadcast(axis)
        for name, bucket_index in report.reassigned_buckets.items():
            constructors[name].reshard(notification.new_mesh, dp_index=bucket_index)
        self.tree = new_tree
        return report


def resize_constructors(
    system, job, handles: list, report: ReshardReport, mesh: DeviceMesh
) -> list:
    """The constructor handles serving ``mesh`` after ``report`` was applied.

    Retires constructors whose bucket disappeared (shrinking DP) and
    provisions one for every bucket the new topology added.
    """
    kept = set(report.reassigned_buckets)
    for handle in handles:
        if handle.name not in kept:
            try:
                system.stop_actor(handle.name)
            except ReproError:  # already stopped, or failed and gone
                pass
    handles = [handle for handle in handles if handle.name in kept]
    for dp_index in range(len(handles), report.constructors_required):
        handles.append(spawn_constructor(job, mesh, system, dp_index))
    return handles
