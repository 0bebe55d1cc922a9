"""ClientPlaceTree: a logical, hierarchical model of the trainer device mesh.

The tree's levels follow the parallelism hierarchy (root -> PP -> DP -> CP ->
TP -> rank leaves).  It lets the orchestration layer answer "how many
consumers exist along axis X?" and "which ranks can be excluded because a
trainer-side broadcast covers them?" without exposing device details to the
user.  The tree is cheap to rebuild,
so elastic resharding simply constructs a new one from the updated mesh.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import OrchestrationError
from repro.parallelism.mesh import DeviceMesh

#: Axes accepted by ``distribute``; WORLD means "every rank is a consumer".
DISTRIBUTION_AXES = ("PP", "DP", "CP", "TP", "WORLD")


@dataclass
class PlaceTreeNode:
    """One node of the tree: an axis label, its index, and child nodes."""

    axis: str
    index: int
    children: list["PlaceTreeNode"] = field(default_factory=list)
    ranks: list[int] = field(default_factory=list)

    def leaf_ranks(self) -> list[int]:
        if not self.children:
            return list(self.ranks)
        collected: list[int] = []
        for child in self.children:
            collected.extend(child.leaf_ranks())
        return collected


class ClientPlaceTree:
    """Hierarchical topology of trainer clients, built from a device mesh."""

    def __init__(self, mesh: DeviceMesh, gpus_per_node: int | None = None) -> None:
        self.mesh = mesh
        self.gpus_per_node = gpus_per_node or mesh.gpus_per_node
        self.root = self._build()
        self._broadcast_axes: set[str] = set()

    def _build(self) -> PlaceTreeNode:
        root = PlaceTreeNode(axis="ROOT", index=0)
        dims = self.mesh.dims.as_dict()
        for pp in range(dims["PP"]):
            pp_node = PlaceTreeNode(axis="PP", index=pp)
            for dp in range(dims["DP"]):
                dp_node = PlaceTreeNode(axis="DP", index=dp)
                for cp in range(dims["CP"]):
                    cp_node = PlaceTreeNode(axis="CP", index=cp)
                    for tp in range(dims["TP"]):
                        ranks = self.mesh.ranks_where(pp=pp, dp=dp, cp=cp, tp=tp)
                        cp_node.children.append(
                            PlaceTreeNode(axis="TP", index=tp, ranks=ranks)
                        )
                    dp_node.children.append(cp_node)
                pp_node.children.append(dp_node)
            root.children.append(pp_node)
        return root

    # -- consumer enumeration ------------------------------------------------------

    def num_consumers(self, axis: str) -> int:
        """Number of distinct data consumers along ``axis``.

        ``DP`` -> number of DP groups; ``CP`` -> DPxCP; ``WORLD`` -> world size.
        ``TP``/``PP`` follow the same nesting (DPxCPxTP, PP alone is the stage count).
        """
        axis = axis.upper()
        if axis not in DISTRIBUTION_AXES:
            raise OrchestrationError(f"unknown distribution axis {axis!r}")
        dims = self.mesh.dims.as_dict()
        if axis == "WORLD":
            return self.mesh.world_size
        if axis == "DP":
            return dims["DP"]
        if axis == "CP":
            return dims["DP"] * dims["CP"]
        if axis == "TP":
            return dims["DP"] * dims["CP"] * dims["TP"]
        return dims["PP"]

    # -- broadcast handling -----------------------------------------------------------

    def mark_broadcast(self, axis: str) -> None:
        """Record that the trainer broadcasts along ``axis`` (TP or CP).

        Clients with a non-zero coordinate on a broadcast axis are excluded
        from data fetching: only the axis-0 member of each group pulls data.
        """
        axis = axis.upper()
        if axis not in ("TP", "CP", "PP"):
            raise OrchestrationError(f"broadcast axis must be TP, CP or PP (got {axis!r})")
        self._broadcast_axes.add(axis)

    @property
    def broadcast_axes(self) -> set[str]:
        return set(self._broadcast_axes)

    def fetching_ranks(self) -> list[int]:
        """Ranks that actually pull data from a Data Constructor.

        A rank fetches unless it has a non-zero coordinate on any broadcast
        axis (in which case an intra-group trainer-side broadcast covers it).
        """
        fetchers = []
        for coord in self.mesh.coordinates():
            excluded = any(coord.axis(axis) > 0 for axis in self._broadcast_axes)
            if not excluded:
                fetchers.append(coord.rank)
        return fetchers

    def describe(self) -> str:
        dims = self.mesh.dims
        return (
            f"ClientPlaceTree(PP={dims.pp}, DP={dims.dp}, CP={dims.cp}, TP={dims.tp}, "
            f"broadcast={sorted(self._broadcast_axes)})"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()
