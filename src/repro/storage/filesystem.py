"""An in-memory, HDFS-like distributed filesystem namespace.

The filesystem stores arbitrary Python payloads (typically
:class:`repro.storage.columnar.ColumnarFile` objects) under POSIX-style paths,
models replication across storage nodes and charges a per-connection latency
so that remote reads are distinguishable from local buffer hits in the
simulated timelines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import FileNotFoundInStorage

#: Storage nodes every file is replicated across, ``REPLICATION`` at a time.
STORAGE_NODES = ("dfs-0", "dfs-1", "dfs-2")
#: Replication factor (the HDFS default).
REPLICATION = 3
#: Simulated latency charged per newly opened connection.
CONNECTION_LATENCY_S = 0.002
#: Simulated read bandwidth in bytes per second.
READ_BANDWIDTH_BPS = 2.0e9


@dataclass(frozen=True)
class FileStat:
    """Metadata returned by :meth:`SimulatedFileSystem.stat`."""

    path: str
    size_bytes: int
    replicas: tuple[str, ...]
    kind: str


@dataclass
class _Entry:
    payload: object
    size_bytes: int
    kind: str
    replicas: tuple[str, ...] = ()
    open_connections: int = 0


class SimulatedFileSystem:
    """A namespace of files replicated over named storage nodes.

    Files are replicated round-robin across ``REPLICATION`` of the
    ``STORAGE_NODES``; each newly opened connection costs
    ``CONNECTION_LATENCY_S``, and :meth:`transfer_time` converts payload sizes
    into durations at ``READ_BANDWIDTH_BPS``.
    """

    def __init__(self) -> None:
        self._entries: dict[str, _Entry] = {}
        self._placement_cursor = 0

    # -- namespace operations -------------------------------------------------

    def write(self, path: str, payload: object, size_bytes: int, kind: str = "blob") -> FileStat:
        """Store ``payload`` at ``path``, replacing any existing file."""
        path = self._normalize(path)
        replicas = self._place()
        self._entries[path] = _Entry(
            payload=payload, size_bytes=int(size_bytes), kind=kind, replicas=replicas
        )
        return self.stat(path)

    def read(self, path: str) -> object:
        """Return the stored payload (no copy: payloads are treated as immutable)."""
        return self._entry(path).payload

    def stat(self, path: str) -> FileStat:
        """Return size/replica metadata for ``path``."""
        path = self._normalize(path)
        entry = self._entry(path)
        return FileStat(
            path=path, size_bytes=entry.size_bytes, replicas=entry.replicas, kind=entry.kind
        )

    def exists(self, path: str) -> bool:
        return self._normalize(path) in self._entries

    def delete(self, path: str) -> None:
        path = self._normalize(path)
        if path not in self._entries:
            raise FileNotFoundInStorage(path)
        del self._entries[path]

    # -- connection model ------------------------------------------------------

    def open_connection(self, path: str) -> float:
        """Open a socket-style connection to ``path``; returns the latency cost."""
        entry = self._entry(path)
        entry.open_connections += 1
        return CONNECTION_LATENCY_S

    def close_connection(self, path: str) -> None:
        entry = self._entry(path)
        entry.open_connections = max(0, entry.open_connections - 1)

    def open_connection_count(self, path: str) -> int:
        return self._entry(path).open_connections

    def transfer_time(self, n_bytes: int) -> float:
        """Seconds needed to stream ``n_bytes`` at the configured bandwidth."""
        return max(0.0, n_bytes / READ_BANDWIDTH_BPS)

    # -- internals -------------------------------------------------------------

    def _place(self) -> tuple[str, ...]:
        chosen = []
        for offset in range(REPLICATION):
            index = (self._placement_cursor + offset) % len(STORAGE_NODES)
            chosen.append(STORAGE_NODES[index])
        self._placement_cursor = (self._placement_cursor + 1) % len(STORAGE_NODES)
        return tuple(chosen)

    def _entry(self, path: str) -> _Entry:
        path = self._normalize(path)
        try:
            return self._entries[path]
        except KeyError:
            raise FileNotFoundInStorage(path) from None

    @staticmethod
    def _normalize(path: str) -> str:
        if not path.startswith("/"):
            path = "/" + path
        while "//" in path:
            path = path.replace("//", "/")
        return path.rstrip("/") if path != "/" else path
