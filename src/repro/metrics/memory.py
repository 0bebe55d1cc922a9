"""Byte-accurate memory accounting.

Every component that holds simulated state (file access states, prefetch
buffers, sample payloads, shadow loader snapshots) charges and releases bytes
against a :class:`MemoryLedger`.  Ledgers can be organised hierarchically: a
node-level ledger aggregates the ledgers of the actors placed on that node,
which is how the per-node memory numbers in Fig. 4, Fig. 12 and Fig. 17 are
produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class MemoryLedger:
    """Tracks live bytes by category.

    Categories are free-form strings; the conventions used by the package are
    ``"file_state"`` (sockets, footers, schemas), ``"row_group_buffer"``,
    ``"prefetch_buffer"``, ``"sample_payload"``, ``"worker_context"``,
    ``"shadow_state"`` and ``"plan_metadata"``.
    """

    name: str = "ledger"
    _live: dict[str, int] = field(default_factory=dict, init=False)
    _children: list["MemoryLedger"] = field(default_factory=list, init=False)
    #: Sum of ``_live``, kept incrementally so a charge does not re-sum it.
    _own_total: int = field(default=0, init=False)

    def charge(self, category: str, n_bytes: int) -> None:
        """Add ``n_bytes`` of live memory under ``category``."""
        if n_bytes < 0:
            raise ValueError(f"cannot charge negative bytes ({n_bytes})")
        n_bytes = int(n_bytes)
        self._live[category] = self._live.get(category, 0) + n_bytes
        self._own_total += n_bytes

    def release(self, category: str, n_bytes: int) -> None:
        """Release ``n_bytes`` previously charged under ``category``.

        Releasing more than is live clamps to zero rather than raising, since
        failure-recovery paths may legitimately drop partially-charged state.
        """
        if n_bytes < 0:
            raise ValueError(f"cannot release negative bytes ({n_bytes})")
        current = self._live.get(category, 0)
        self._live[category] = max(0, current - int(n_bytes))
        self._own_total -= current - self._live[category]

    def release_all(self) -> None:
        """Drop every byte this ledger holds directly (children keep theirs)."""
        self._live.clear()
        self._own_total = 0

    def adopt(self, child: "MemoryLedger") -> None:
        """Aggregate ``child`` into this ledger's totals (hierarchical view)."""
        self._children.append(child)

    def disown(self, child: "MemoryLedger") -> None:
        """Stop aggregating ``child`` (e.g. an actor migrated to another node)."""
        try:
            self._children.remove(child)
        except ValueError:
            pass

    def live_bytes(self, category: str) -> int:
        """Live bytes directly charged to this ledger under ``category``."""
        return self._live.get(category, 0)

    def total_bytes(self) -> int:
        """Live bytes including all adopted children."""
        return self._own_total + sum(child.total_bytes() for child in self._children)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MemoryLedger(name={self.name!r}, total={self.total_bytes()})"
