"""Simulated cluster nodes with CPU core and memory accounting.

Two node kinds exist, mirroring the paper's hybrid deployment (Sec. 6.2):
``ACCELERATOR`` pods whose spare CPU/DRAM hosts sidecar actors, and dedicated
``CPU`` pods used by the Planner and for scale-out when sidecar resources run
short.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import SchedulingError
from repro.metrics.memory import MemoryLedger
from repro.utils.units import GIB


class NodeKind(str, enum.Enum):
    ACCELERATOR = "accelerator"
    CPU = "cpu"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class ResourceSpec:
    """Allocatable resources of a node."""

    cpu_cores: float
    memory_bytes: int
    num_gpus: int = 0

    def __post_init__(self) -> None:
        if self.cpu_cores < 0 or self.memory_bytes < 0 or self.num_gpus < 0:
            raise SchedulingError("resource quantities must be non-negative")


#: Default resources of one accelerator node in the testbed (Sec. 7.1):
#: 16 GPUs, 1.8 TB DRAM; half of the CPU/memory is handed to the loader pool.
DEFAULT_ACCELERATOR_RESOURCES = ResourceSpec(cpu_cores=96.0, memory_bytes=900 * GIB, num_gpus=16)
DEFAULT_CPU_POD_RESOURCES = ResourceSpec(cpu_cores=64.0, memory_bytes=256 * GIB, num_gpus=0)


@dataclass
class Node:
    """A schedulable node: tracks CPU core and memory reservations."""

    name: str
    kind: NodeKind
    resources: ResourceSpec
    ledger: MemoryLedger = field(default_factory=lambda: MemoryLedger())
    _reserved_cpu: float = field(default=0.0, init=False)
    _reserved_memory: int = field(default=0, init=False)
    _resident_actors: set[str] = field(default_factory=set, init=False)
    #: High-water marks over the node's lifetime — live telemetry for the
    #: elastic fleet, capturing reservation peaks even between report samples.
    _peak_reserved_cpu: float = field(default=0.0, init=False)
    _peak_reserved_memory: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self.ledger.name = f"node:{self.name}"

    # -- capacity queries --------------------------------------------------------

    @property
    def available_cpu(self) -> float:
        return self.resources.cpu_cores - self._reserved_cpu

    @property
    def available_memory(self) -> int:
        return self.resources.memory_bytes - self._reserved_memory

    @property
    def reserved_cpu(self) -> float:
        return self._reserved_cpu

    def can_fit(self, cpu_cores: float, memory_bytes: int) -> bool:
        return self.available_cpu >= cpu_cores and self.available_memory >= memory_bytes

    # -- reservations -------------------------------------------------------------

    def reserve(self, actor_name: str, cpu_cores: float, memory_bytes: int) -> None:
        """Reserve resources for an actor; raises when the node cannot fit it."""
        if not self.can_fit(cpu_cores, memory_bytes):
            raise SchedulingError(
                f"node {self.name!r} cannot fit actor {actor_name!r}: "
                f"needs {cpu_cores} cores / {memory_bytes} B, "
                f"has {self.available_cpu} cores / {self.available_memory} B free"
            )
        self._reserved_cpu += cpu_cores
        self._reserved_memory += memory_bytes
        self._resident_actors.add(actor_name)
        self._peak_reserved_cpu = max(self._peak_reserved_cpu, self._reserved_cpu)
        self._peak_reserved_memory = max(self._peak_reserved_memory, self._reserved_memory)

    def release(self, actor_name: str, cpu_cores: float, memory_bytes: int) -> None:
        """Release a prior reservation (idempotent for unknown actors)."""
        if actor_name not in self._resident_actors:
            return
        self._reserved_cpu = max(0.0, self._reserved_cpu - cpu_cores)
        self._reserved_memory = max(0, self._reserved_memory - memory_bytes)
        self._resident_actors.discard(actor_name)

    # -- memory reporting ----------------------------------------------------------

    def live_memory_bytes(self) -> int:
        """Live bytes charged by every actor resident on this node."""
        return self.ledger.total_bytes()

    def utilization(self) -> dict[str, float]:
        return {
            "cpu": self._reserved_cpu / self.resources.cpu_cores if self.resources.cpu_cores else 0.0,
            "memory": self._reserved_memory / self.resources.memory_bytes
            if self.resources.memory_bytes
            else 0.0,
        }

    def peak_utilization(self) -> dict[str, float]:
        """Lifetime reservation high-water marks as utilization fractions."""
        return {
            "cpu": self._peak_reserved_cpu / self.resources.cpu_cores
            if self.resources.cpu_cores
            else 0.0,
            "memory": self._peak_reserved_memory / self.resources.memory_bytes
            if self.resources.memory_bytes
            else 0.0,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Node({self.name!r}, kind={self.kind.value}, cpu={self.available_cpu:.1f} free)"
