"""Columnar readers and per-open-file access state accounting.

Opening a columnar file requires a dedicated connection (socket), loading the
footer and schema into memory, and keeping the active row group buffered
while rows are consumed.  The bytes held by this state are what the paper
calls *per-source file access states*; replicating them per dataloader worker
and per parallel rank is the memory redundancy MegaScale-Data eliminates.
"""

from __future__ import annotations

from repro.errors import StorageError
from repro.metrics.memory import MemoryLedger
from repro.storage.columnar import ColumnarFile
from repro.storage.filesystem import SimulatedFileSystem

#: Memory cost of an open socket / RPC channel to the storage service.
SOCKET_STATE_BYTES = 256 * 1024
#: Memory cost of parsed schema structures, independent of file size.
SCHEMA_STATE_BYTES = 128 * 1024


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

    def __init__(self, filesystem: SimulatedFileSystem, path: str, ledger: MemoryLedger) -> None:
        self._fs = filesystem
        self._path = path
        self._ledger = ledger
        self._file: ColumnarFile | None = None
        #: Index of the one buffered row group (``None`` before the first read).
        self._buffered_group: int | None = None
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
        self._ledger.charge("file_state", payload.footer_bytes)
        return latency

    def close(self) -> None:
        """Release the connection, footer and the buffered row group."""
        if self._file is None or self._closed:
            return
        self._fs.close_connection(self._path)
        self._ledger.release("file_state", SOCKET_STATE_BYTES)
        self._ledger.release("file_state", SCHEMA_STATE_BYTES)
        self._ledger.release("file_state", self._file.footer_bytes)
        self._drop_buffer()
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
        if group.index != self._buffered_group:
            latency += self._fs.transfer_time(group.compressed_bytes)
            self._buffer_group(group.index, group.compressed_bytes)
        record = file.read_row(row_index)
        return record, latency

    # -- internals -------------------------------------------------------------

    def _require_open(self) -> ColumnarFile:
        if self._file is None or self._closed:
            raise StorageError(f"reader for {self._path!r} is not open")
        return self._file

    def _buffer_group(self, group_index: int, compressed_bytes: int) -> None:
        """Buffer ``group_index``, then evict the group it replaces."""
        self._ledger.charge("row_group_buffer", compressed_bytes)
        self._drop_buffer()
        self._buffered_group = group_index

    def _drop_buffer(self) -> None:
        if self._buffered_group is None:
            return
        self._ledger.release(
            "row_group_buffer", self._file.row_groups[self._buffered_group].compressed_bytes
        )
        self._buffered_group = None
