"""Unit tests for the SQLite KV store's batched writes and pragmas."""

from __future__ import annotations

import sys
import threading

from repro.core.checkpoint import SqliteCheckpointStore
from repro.storage.filesystem import SimulatedFileSystem
from repro.storage.kvstore import SqliteKVStore


class TestPragmas:
    def test_file_backed_store_uses_wal(self, tmp_path):
        store = SqliteKVStore(str(tmp_path / "ckpt.db"))
        mode = store._conn.execute("PRAGMA journal_mode").fetchone()[0]
        sync = store._conn.execute("PRAGMA synchronous").fetchone()[0]
        assert mode == "wal"
        assert sync == 1  # NORMAL
        store.close()

    def test_memory_store_still_works(self):
        store = SqliteKVStore()
        store.put("ns", 1, b"x")
        assert store.get("ns", 1) == b"x"
        store.close()


class TestPutMany:
    def test_batch_round_trips(self):
        store = SqliteKVStore()
        store.put_many([("a", 1, b"one"), ("a", 2, b"two"), ("b", 1, b"uno")])
        assert store.get("a", 1) == b"one"
        assert store.get("a", 2) == b"two"
        assert store.get("b", 1) == b"uno"
        assert store.steps("a") == [1, 2]
        store.close()

    def test_batch_replaces_existing(self):
        store = SqliteKVStore()
        store.put("a", 1, b"old")
        store.put_many([("a", 1, b"new")])
        assert store.get("a", 1) == b"new"
        store.close()

    def test_empty_batch_is_noop(self):
        store = SqliteKVStore()
        store.put_many([])
        assert store.steps("a") == []
        store.close()

    def test_batch_is_one_transaction(self, tmp_path):
        # Verified behaviourally: after put_many, no transaction is open
        # (commit happened) and every row is visible to a fresh connection.
        path = str(tmp_path / "batch.db")
        store = SqliteKVStore(path)
        store.put_many([("ns", step, bytes([step])) for step in range(8)])
        assert store._conn.in_transaction is False
        other = SqliteKVStore(path)
        assert other.steps("ns") == list(range(8))
        store.close()
        other.close()

    def test_batch_mirrors_filesystem_accounting(self):
        fs = SimulatedFileSystem()
        store = SqliteKVStore(filesystem=fs)
        store.put_many([("ns", 1, b"abc"), ("ns", 2, b"defgh")])
        assert fs.exists("/checkpoints/ns/1")
        assert fs.exists("/checkpoints/ns/2")


class TestSharedAcrossThreads:
    def test_concurrent_writers_lose_nothing(self, tmp_path):
        """Wallclock actor lanes write through one store from many threads."""
        path = str(tmp_path / "shared.db")
        store = SqliteKVStore(path)
        writers, errors = 4, []

        def write(index):
            try:
                namespace = f"loader/{index}"
                for step in range(200):
                    store.put(namespace, step, bytes([index]))
                    if step % 10 == 9:
                        store.put_many([(f"plans/{index}", step, b"p")])
                        store.delete_from(namespace, step - 4)
                    assert store.latest(namespace)[1] == bytes([index])
            except Exception as exc:  # noqa: BLE001 - reported by the assert below
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=write, args=(i,)) for i in range(writers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        other = SqliteKVStore(path)
        for index in range(writers):
            kept = [step for step in range(200) if step % 10 < 5]
            assert store.steps(f"loader/{index}") == kept
            assert other.steps(f"loader/{index}") == kept
            assert other.steps(f"plans/{index}") == list(range(9, 200, 10))
        store.close()
        other.close()


class TestCheckpointStoreSaveMany:
    def test_sqlite_save_many_round_trips(self):
        store = SqliteCheckpointStore()
        store.save_many([("loader/a", 4, {"v": 1}), ("loader/b", 4, {"v": 2})])
        assert store.load("loader/a", 4) == {"v": 1}
        assert store.load_latest("loader/b") == (4, {"v": 2})

    def test_interface_default_falls_back_to_save(self):
        from repro.core.checkpoint import InMemoryCheckpointStore

        store = InMemoryCheckpointStore()
        store.save_many([("ns", 1, "x"), ("ns", 2, "y")])
        assert store.steps("ns") == [1, 2]
        assert store.load("ns", 2) == "y"
