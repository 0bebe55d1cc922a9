"""Device mesh for hybrid (PP x DP x CP x TP) parallelism.

The mesh enumerates trainer ranks and exposes the coordinate of each rank in
the four parallel dimensions used by the paper: pipeline parallelism (PP),
data parallelism (DP), context parallelism (CP) and tensor parallelism (TP).
The encoder side of a VLM may additionally treat every GPU as an independent
encoder-data-parallel (EDP/"WORLD") consumer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

#: Canonical ordering of mesh axes from outermost to innermost.  Ranks are
#: laid out so TP is the innermost (fastest-varying) dimension, matching
#: Megatron-style rank assignment where TP groups share a node.
AXIS_ORDER = ("PP", "DP", "CP", "TP")


@dataclass(frozen=True)
class ParallelDims:
    """Sizes of each parallel dimension."""

    pp: int = 1
    dp: int = 1
    cp: int = 1
    tp: int = 1

    def __post_init__(self) -> None:
        for axis, size in self.as_dict().items():
            if size < 1:
                raise ConfigurationError(f"{axis} size must be >= 1 (got {size})")

    def as_dict(self) -> dict[str, int]:
        return {"PP": self.pp, "DP": self.dp, "CP": self.cp, "TP": self.tp}

    @property
    def world_size(self) -> int:
        return self.pp * self.dp * self.cp * self.tp


@dataclass(frozen=True)
class RankCoordinate:
    """Coordinates of one trainer rank in the mesh."""

    rank: int
    pp: int
    dp: int
    cp: int
    tp: int

    def axis(self, name: str) -> int:
        name = name.upper()
        if name == "PP":
            return self.pp
        if name == "DP":
            return self.dp
        if name == "CP":
            return self.cp
        if name == "TP":
            return self.tp
        raise ConfigurationError(f"unknown mesh axis {name!r}")


class DeviceMesh:
    """A logical device mesh over ``world_size = pp * dp * cp * tp`` ranks."""

    def __init__(self, pp: int = 1, dp: int = 1, cp: int = 1, tp: int = 1, gpus_per_node: int = 8) -> None:
        self.dims = ParallelDims(pp=pp, dp=dp, cp=cp, tp=tp)
        if gpus_per_node < 1:
            raise ConfigurationError("gpus_per_node must be >= 1")
        self.gpus_per_node = gpus_per_node
        self._coords: list[RankCoordinate] = []
        rank = 0
        for pp_index in range(pp):
            for dp_index in range(dp):
                for cp_index in range(cp):
                    for tp_index in range(tp):
                        self._coords.append(
                            RankCoordinate(rank=rank, pp=pp_index, dp=dp_index, cp=cp_index, tp=tp_index)
                        )
                        rank += 1

    # -- basic queries ----------------------------------------------------------

    @property
    def world_size(self) -> int:
        return self.dims.world_size

    @property
    def num_nodes(self) -> int:
        return (self.world_size + self.gpus_per_node - 1) // self.gpus_per_node

    def size(self, axis: str) -> int:
        return self.dims.as_dict()[axis.upper()]

    def coordinate(self, rank: int) -> RankCoordinate:
        if not (0 <= rank < self.world_size):
            raise ConfigurationError(f"rank {rank} out of range for world size {self.world_size}")
        return self._coords[rank]

    def coordinates(self) -> list[RankCoordinate]:
        return list(self._coords)

    # -- group queries ----------------------------------------------------------

    def ranks_where(self, **axis_values: int) -> list[int]:
        """Ranks matching the given axis values, e.g. ``ranks_where(dp=0, pp=1)``."""
        selected = []
        for coord in self._coords:
            if all(coord.axis(axis) == value for axis, value in axis_values.items()):
                selected.append(coord.rank)
        return selected

    def data_consumers(self, axis: str = "DP") -> list[list[int]]:
        """Rank groups that consume distinct data along ``axis``.

        - ``DP``: one group per DP index (each group shares a minibatch; CP/TP
          ranks inside the group receive derived slices/replicas).
        - ``CP``: one group per (DP, CP) pair, i.e. DPxCP consumers (hybrid
          data parallelism in the paper's ``distribute(axis='CP')``).
        - ``WORLD``: every rank is an independent consumer (encoder EDP).
        """
        axis = axis.upper()
        if axis == "WORLD":
            return [[rank] for rank in range(self.world_size)]
        if axis == "DP":
            return [self.ranks_where(dp=dp_index) for dp_index in range(self.dims.dp)]
        if axis == "CP":
            groups = []
            for dp_index in range(self.dims.dp):
                for cp_index in range(self.dims.cp):
                    groups.append(self.ranks_where(dp=dp_index, cp=cp_index))
            return groups
        raise ConfigurationError(f"unsupported distribution axis {axis!r}")

    def describe(self) -> str:
        dims = self.dims
        return (
            f"DeviceMesh(PP={dims.pp}, DP={dims.dp}, CP={dims.cp}, TP={dims.tp}, "
            f"world={self.world_size}, nodes={self.num_nodes})"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()
