"""ClientPlaceTree: a logical, hierarchical model of the trainer device mesh.

The tree's levels follow the parallelism hierarchy (PP -> DP -> CP -> TP ->
rank leaves), read off the mesh dimensions rather than stored as nodes.  It
lets the orchestration layer answer "how many consumers exist along axis X?"
and "which ranks can be excluded because a trainer-side broadcast covers
them?" without exposing device details to the user.  The tree is cheap to
rebuild, so elastic resharding simply constructs a new one from the updated
mesh.
"""

from __future__ import annotations

from repro.errors import OrchestrationError
from repro.parallelism.mesh import DeviceMesh

#: Axes accepted by ``distribute``; WORLD means "every rank is a consumer".
DISTRIBUTION_AXES = ("PP", "DP", "CP", "TP", "WORLD")


class ClientPlaceTree:
    """Hierarchical topology of trainer clients over a device mesh.

    Consumer counts come from the mesh dimensions; the tree's own state is
    the set of axes the trainer broadcasts along and the fetching ranks they
    leave, computed once per set of axes.
    """

    def __init__(self, mesh: DeviceMesh) -> None:
        self.mesh = mesh
        self._broadcast_axes: set[str] = set()
        self._fetchers: list[int] | None = None

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
        if axis not in self._broadcast_axes:
            self._broadcast_axes.add(axis)
            self._fetchers = None

    @property
    def broadcast_axes(self) -> set[str]:
        return set(self._broadcast_axes)

    def fetching_ranks(self) -> list[int]:
        """Ranks that actually pull data from a Data Constructor.

        A rank fetches unless it has a non-zero coordinate on any broadcast
        axis (in which case an intra-group trainer-side broadcast covers it).
        The walk over the ranks runs once per set of broadcast axes (a reshard
        builds a new tree); each call returns its own copy of the list.
        """
        if self._fetchers is None:
            self._fetchers = [
                coord.rank
                for coord in self.mesh.coordinates()
                if not any(coord.axis(axis) > 0 for axis in self._broadcast_axes)
            ]
        return list(self._fetchers)

    def describe(self) -> str:
        dims = self.mesh.dims
        return (
            f"ClientPlaceTree(PP={dims.pp}, DP={dims.dp}, CP={dims.cp}, TP={dims.tp}, "
            f"broadcast={sorted(self._broadcast_axes)})"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()
