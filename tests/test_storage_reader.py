"""Unit tests for the columnar reader and its access-state memory accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import StorageError
from repro.metrics.memory import MemoryLedger
from repro.storage.columnar import ColumnSchema
from repro.storage.reader import (
    SCHEMA_STATE_BYTES,
    SOCKET_STATE_BYTES,
    ColumnarReader,
)
from conftest import store_columns

SCHEMA = [ColumnSchema("sample_id", 8), ColumnSchema("tokens", 4)]


@pytest.fixture()
def stored_file(filesystem):
    columns = {"sample_id": np.arange(30), "tokens": np.arange(30)}
    return store_columns(filesystem, "/data/f", columns, SCHEMA, rows_per_group=10)


class TestLifecycle:
    def test_open_charges_file_state(self, filesystem, stored_file):
        ledger = MemoryLedger()
        reader = ColumnarReader(filesystem, "/data/f", ledger)
        latency = reader.open()
        assert latency > 0
        expected = SOCKET_STATE_BYTES + SCHEMA_STATE_BYTES + stored_file.footer_bytes
        assert ledger.live_bytes("file_state") == expected

    def test_close_releases_everything(self, filesystem, stored_file):
        ledger = MemoryLedger()
        with ColumnarReader(filesystem, "/data/f", ledger) as reader:
            reader.read_row(0)
            assert ledger.total_bytes() > 0
        assert ledger.total_bytes() == 0

    def test_double_open_is_idempotent(self, filesystem, stored_file):
        ledger = MemoryLedger()
        reader = ColumnarReader(filesystem, "/data/f", ledger)
        reader.open()
        before = ledger.total_bytes()
        assert reader.open() == 0.0
        assert ledger.total_bytes() == before

    def test_read_before_open_raises(self, filesystem, stored_file):
        reader = ColumnarReader(filesystem, "/data/f", MemoryLedger())
        with pytest.raises(StorageError):
            reader.read_row(0)

    def test_non_columnar_payload_rejected(self, filesystem):
        filesystem.write("/blob", b"raw", size_bytes=3)
        reader = ColumnarReader(filesystem, "/blob", MemoryLedger())
        with pytest.raises(StorageError):
            reader.open()

    def test_connection_tracked_in_filesystem(self, filesystem, stored_file):
        reader = ColumnarReader(filesystem, "/data/f", MemoryLedger())
        reader.open()
        assert filesystem.open_connection_count("/data/f") == 1
        reader.close()
        assert filesystem.open_connection_count("/data/f") == 0


class TestReads:
    def test_read_row_values(self, filesystem, stored_file):
        with ColumnarReader(filesystem, "/data/f", MemoryLedger()) as reader:
            record, latency = reader.read_row(15)
            assert record["sample_id"] == 15
            assert latency > 0  # first touch of a row group transfers it

    def test_second_read_same_group_is_free(self, filesystem, stored_file):
        with ColumnarReader(filesystem, "/data/f", MemoryLedger()) as reader:
            _, first = reader.read_row(0)
            _, second = reader.read_row(1)
            assert first > 0
            assert second == 0.0

    def test_buffer_eviction_respects_limit(self, filesystem, stored_file):
        ledger = MemoryLedger()
        with ColumnarReader(filesystem, "/data/f", ledger) as reader:
            reader.read_row(0)
            first_buffer = ledger.live_bytes("row_group_buffer")
            reader.read_row(25)
            assert ledger.live_bytes("row_group_buffer") == pytest.approx(
                stored_file.row_groups[2].compressed_bytes
            )
            assert first_buffer > 0

    def test_access_state_breakdown(self, filesystem, stored_file):
        ledger = MemoryLedger()
        with ColumnarReader(filesystem, "/data/f", ledger) as reader:
            reader.read_row(0)
            assert ledger.live_bytes("file_state") == (
                SOCKET_STATE_BYTES + SCHEMA_STATE_BYTES + stored_file.footer_bytes
            )
            buffered = ledger.live_bytes("row_group_buffer")
            assert buffered == stored_file.row_groups[0].compressed_bytes > 0
            assert ledger.total_bytes() == ledger.live_bytes("file_state") + buffered

    def test_total_rows(self, filesystem, stored_file):
        with ColumnarReader(filesystem, "/data/f", MemoryLedger()) as reader:
            assert reader.total_rows == 30
