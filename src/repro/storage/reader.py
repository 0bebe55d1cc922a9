"""Columnar readers and per-open-file access state accounting.

Opening a columnar file requires a dedicated connection (socket), loading the
footer and schema into memory, and keeping one or more row-group buffers live
while rows are consumed.  The bytes held by this state are what the paper
calls *per-source file access states*; replicating them per dataloader worker
and per parallel rank is the memory redundancy MegaScale-Data eliminates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import StorageError
from repro.metrics.memory import MemoryLedger
from repro.storage.columnar import ColumnarFile
from repro.storage.filesystem import SimulatedFileSystem

#: Memory cost of an open socket / RPC channel to the storage service.
SOCKET_STATE_BYTES = 256 * 1024
#: Memory cost of parsed schema structures, independent of file size.
SCHEMA_STATE_BYTES = 128 * 1024


@dataclass
class ReaderConfig:
    """Tunables for :class:`ColumnarReader`."""

    #: How many row groups are buffered at once (Parquet readers usually keep
    #: at least the active group plus one readahead group).
    buffered_row_groups: int = 1
    #: Whether the footer is kept resident after open (always true for readers
    #: that will issue more than one query).
    cache_footer: bool = True


@dataclass
class FileAccessState:
    """Breakdown of the live memory held for one open file."""

    path: str
    socket_bytes: int
    footer_bytes: int
    schema_bytes: int
    buffer_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.socket_bytes + self.footer_bytes + self.schema_bytes + self.buffer_bytes


class ColumnarReader:
    """Reads rows from one :class:`ColumnarFile`, charging access-state memory.

    Parameters
    ----------
    filesystem:
        The simulated DFS holding the file.
    path:
        Path of the file to open.
    ledger:
        Memory ledger charged for this reader's access state; typically owned
        by the dataloader worker or Source Loader actor hosting the reader.
    """

    def __init__(
        self,
        filesystem: SimulatedFileSystem,
        path: str,
        ledger: MemoryLedger,
        config: ReaderConfig | None = None,
    ) -> None:
        self._fs = filesystem
        self._path = path
        self._ledger = ledger
        self._config = config or ReaderConfig()
        self._file: ColumnarFile | None = None
        self._buffered_groups: list[int] = []
        self._buffer_bytes = 0
        self._cursor = 0
        self._closed = False

    # -- lifecycle -------------------------------------------------------------

    def open(self) -> float:
        """Open the file: connect, load the footer/schema, charge memory.

        Returns the simulated latency spent opening (connection + footer read).
        """
        if self._file is not None:
            return 0.0
        payload = self._fs.read(self._path)
        if not isinstance(payload, ColumnarFile):
            raise StorageError(f"{self._path!r} is not a columnar file")
        self._file = payload
        latency = self._fs.open_connection(self._path)
        latency += self._fs.transfer_time(payload.footer_bytes)
        self._ledger.charge("file_state", SOCKET_STATE_BYTES)
        self._ledger.charge("file_state", SCHEMA_STATE_BYTES)
        if self._config.cache_footer:
            self._ledger.charge("file_state", payload.footer_bytes)
        return latency

    def close(self) -> None:
        """Release the connection, footer and any buffered row groups."""
        if self._file is None or self._closed:
            return
        self._fs.close_connection(self._path)
        self._ledger.release("file_state", SOCKET_STATE_BYTES)
        self._ledger.release("file_state", SCHEMA_STATE_BYTES)
        if self._config.cache_footer:
            self._ledger.release("file_state", self._file.footer_bytes)
        self._drop_buffers()
        self._closed = True

    def __enter__(self) -> "ColumnarReader":
        self.open()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- reads -----------------------------------------------------------------

    @property
    def total_rows(self) -> int:
        return self._require_open().total_rows

    def read_row(self, row_index: int) -> tuple[dict[str, object], float]:
        """Read one row, buffering its row group; returns (record, latency)."""
        file = self._require_open()
        group = file.row_group_for_row(row_index)
        latency = 0.0
        if group.index not in self._buffered_groups:
            latency += self._fs.transfer_time(group.compressed_bytes)
            self._buffer_group(group.index, group.compressed_bytes)
        record = file.read_row(row_index)
        return record, latency

    def read_next(self) -> tuple[dict[str, object], float]:
        """Read the next row sequentially (wrapping around at end of file)."""
        file = self._require_open()
        record, latency = self.read_row(self._cursor)
        self._cursor = (self._cursor + 1) % file.total_rows
        return record, latency

    def iter_rows(self, start: int = 0, count: int | None = None):
        """Yield ``(record, latency)`` pairs for a contiguous range of rows."""
        file = self._require_open()
        end = file.total_rows if count is None else min(file.total_rows, start + count)
        for row_index in range(start, end):
            yield self.read_row(row_index)

    # -- introspection ---------------------------------------------------------

    def access_state(self) -> FileAccessState:
        """Current memory breakdown held by this reader."""
        file = self._require_open()
        footer = file.footer_bytes if self._config.cache_footer else 0
        return FileAccessState(
            path=self._path,
            socket_bytes=SOCKET_STATE_BYTES,
            footer_bytes=footer,
            schema_bytes=SCHEMA_STATE_BYTES,
            buffer_bytes=self._buffer_bytes,
        )

    # -- internals -------------------------------------------------------------

    def _require_open(self) -> ColumnarFile:
        if self._file is None or self._closed:
            raise StorageError(f"reader for {self._path!r} is not open")
        return self._file

    def _buffer_group(self, group_index: int, compressed_bytes: int) -> None:
        self._buffered_groups.append(group_index)
        self._ledger.charge("row_group_buffer", compressed_bytes)
        self._buffer_bytes += compressed_bytes
        while len(self._buffered_groups) > self._config.buffered_row_groups:
            evicted = self._buffered_groups.pop(0)
            file = self._require_open()
            evicted_bytes = file.row_groups[evicted].compressed_bytes
            self._ledger.release("row_group_buffer", evicted_bytes)
            self._buffer_bytes -= evicted_bytes

    def _drop_buffers(self) -> None:
        if self._file is None:
            return
        for group_index in self._buffered_groups:
            self._ledger.release(
                "row_group_buffer", self._file.row_groups[group_index].compressed_bytes
            )
        self._buffered_groups.clear()
        self._buffer_bytes = 0
