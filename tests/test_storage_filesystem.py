"""Unit tests for the simulated distributed filesystem."""

from __future__ import annotations

import pytest

from repro.errors import FileNotFoundInStorage, StorageError
from repro.storage.filesystem import SimulatedFileSystem


class TestNamespace:
    def test_write_read_roundtrip(self, filesystem):
        filesystem.write("/data/a", {"x": 1}, size_bytes=100)
        assert filesystem.read("/data/a") == {"x": 1}

    def test_path_normalization(self, filesystem):
        filesystem.write("data//b/", "payload", size_bytes=10)
        assert filesystem.exists("/data/b")
        assert filesystem.read("/data/b") == "payload"

    def test_missing_file_raises(self, filesystem):
        with pytest.raises(FileNotFoundInStorage):
            filesystem.read("/missing")

    def test_stat_reports_size_and_replicas(self, filesystem):
        stat = filesystem.write("/data/c", b"xx", size_bytes=2, kind="blob")
        assert stat.size_bytes == 2
        assert len(stat.replicas) == filesystem.replication
        assert stat.kind == "blob"

    def test_delete(self, filesystem):
        filesystem.write("/data/d", 1, size_bytes=1)
        filesystem.delete("/data/d")
        assert not filesystem.exists("/data/d")

    def test_delete_missing_raises(self, filesystem):
        with pytest.raises(FileNotFoundInStorage):
            filesystem.delete("/nope")

    def test_overwrite_replaces_payload(self, filesystem):
        filesystem.write("/data/z", 1, size_bytes=1)
        filesystem.write("/data/z", 2, size_bytes=1)
        assert filesystem.read("/data/z") == 2


class TestConfiguration:
    def test_requires_storage_nodes(self):
        with pytest.raises(StorageError):
            SimulatedFileSystem(storage_nodes=())

    def test_replication_capped_to_node_count(self):
        fs = SimulatedFileSystem(storage_nodes=("a", "b"), replication=5)
        stat = fs.write("/f", 1, size_bytes=1)
        assert len(stat.replicas) == 2

    def test_invalid_replication_rejected(self):
        with pytest.raises(StorageError):
            SimulatedFileSystem(replication=0)

    def test_replica_placement_rotates(self):
        fs = SimulatedFileSystem(storage_nodes=("a", "b", "c"), replication=1)
        first = fs.write("/1", 1, size_bytes=1).replicas
        second = fs.write("/2", 1, size_bytes=1).replicas
        assert first != second


class TestConnections:
    def test_open_close_connection_counts(self, filesystem):
        filesystem.write("/f", 1, size_bytes=1)
        latency = filesystem.open_connection("/f")
        assert latency == pytest.approx(filesystem.connection_latency_s)
        assert filesystem.open_connection_count("/f") == 1
        filesystem.close_connection("/f")
        assert filesystem.open_connection_count("/f") == 0

    def test_close_never_goes_negative(self, filesystem):
        filesystem.write("/f", 1, size_bytes=1)
        filesystem.close_connection("/f")
        assert filesystem.open_connection_count("/f") == 0

    def test_transfer_time_scales_with_bytes(self, filesystem):
        small = filesystem.transfer_time(1_000)
        large = filesystem.transfer_time(1_000_000)
        assert large > small
        assert filesystem.transfer_time(0) == 0.0
