"""Unit tests for the SQLite checkpoint store: pragmas, batched writes,
filesystem mirroring and writers on many threads."""

from __future__ import annotations

import sys
import threading
from dataclasses import replace

from repro import MegaScaleData, TrainingJobSpec
from repro.core.checkpoint import InMemoryCheckpointStore, SqliteCheckpointStore
from repro.core.planner import PLAN_NAMESPACE
from repro.data.mixture import MixtureSchedule
from repro.storage.filesystem import SimulatedFileSystem


class TestPragmas:
    def test_file_backed_store_uses_wal(self, tmp_path):
        store = SqliteCheckpointStore(str(tmp_path / "ckpt.db"))
        mode = store._conn.execute("PRAGMA journal_mode").fetchone()[0]
        sync = store._conn.execute("PRAGMA synchronous").fetchone()[0]
        assert mode == "wal"
        assert sync == 1  # NORMAL
        store.close()

    def test_memory_store_still_works(self):
        store = SqliteCheckpointStore()
        store.save("ns", 1, b"x")
        assert store.load("ns", 1) == b"x"
        store.close()


class TestSaveMany:
    def test_batch_round_trips(self):
        store = SqliteCheckpointStore()
        store.save_many([("a", 1, "one"), ("a", 2, {"v": 2}), ("b", 1, "uno")])
        assert store.load("a", 1) == "one"
        assert store.load("a", 2) == {"v": 2}
        assert store.load_latest("b") == (1, "uno")
        assert store.steps("a") == [1, 2]
        store.close()

    def test_batch_replaces_existing(self):
        store = SqliteCheckpointStore()
        store.save("a", 1, "old")
        store.save_many([("a", 1, "new")])
        assert store.load("a", 1) == "new"
        store.close()

    def test_empty_batch_is_noop(self):
        store = SqliteCheckpointStore()
        store.save_many([])
        assert store.steps("a") == []
        store.close()

    def test_batch_is_one_transaction(self, tmp_path):
        # Verified behaviourally: after save_many, no transaction is open
        # (commit happened) and every row is visible to a fresh connection.
        path = str(tmp_path / "batch.db")
        store = SqliteCheckpointStore(path)
        store.save_many([("ns", step, step) for step in range(8)])
        assert store._conn.in_transaction is False
        other = SqliteCheckpointStore(path)
        assert other.steps("ns") == list(range(8))
        store.close()
        other.close()

    def test_interface_default_falls_back_to_save(self):
        store = InMemoryCheckpointStore()
        store.save_many([("ns", 1, "x"), ("ns", 2, "y")])
        assert store.steps("ns") == [1, 2]
        assert store.load("ns", 2) == "y"


class TestFilesystemMirror:
    def test_batch_mirrors_filesystem_accounting(self):
        fs = SimulatedFileSystem()
        store = SqliteCheckpointStore(filesystem=fs)
        store.save_many([("ns", 1, b"abc"), ("ns", 2, b"defgh")])
        assert fs.exists("/checkpoints/ns/1")
        assert fs.exists("/checkpoints/ns/2")

    def test_every_delete_drops_rows_and_files_together(self):
        fs = SimulatedFileSystem()
        store = SqliteCheckpointStore(filesystem=fs)
        for step in range(8):
            store.save("ns", step, step)
        assert store.delete_from("ns", 5) == 3
        assert store.delete_below("ns", 2) == 2
        assert store.steps("ns") == [2, 3, 4]
        assert [step for step in range(8) if fs.exists(f"/checkpoints/ns/{step}")] == [2, 3, 4]

    def test_a_flushed_run_keeps_a_file_for_each_plan_row_only(self):
        """A flush truncates the never-delivered plan rows with
        ``delete_from``; their mirrored files go with them."""
        job = replace(
            TrainingJobSpec.text_example(), prefetch_depth=2, replay_window=5,
            checkpoint_backend="sqlite", seed=0,
        )
        system = MegaScaleData.deploy(job)
        try:
            for _ in range(8):
                system.run_step()
            sources = [source.name for source in system.catalog.sources()]
            weights = {name: 1.0 for name in sources}
            weights[sources[0]] = 2.0
            system.set_mixture(MixtureSchedule.static(weights), flush_pending=True)
            rows = system.checkpoint_store.steps(PLAN_NAMESPACE)
            files = [
                step
                for step in range(16)
                if system.filesystem.exists(f"/checkpoints/{PLAN_NAMESPACE}/{step}")
            ]
        finally:
            system.shutdown()
        assert rows == list(range(8))
        assert files == rows


class TestSharedAcrossThreads:
    def test_concurrent_writers_lose_nothing(self, tmp_path):
        """Wallclock actor lanes write through one store from many threads."""
        path = str(tmp_path / "shared.db")
        store = SqliteCheckpointStore(path)
        writers, errors = 4, []

        def write(index):
            try:
                namespace = f"loader/{index}"
                for step in range(200):
                    store.save(namespace, step, bytes([index]))
                    if step % 10 == 9:
                        store.save_many([(f"plans/{index}", step, b"p")])
                        store.delete_from(namespace, step - 4)
                    assert store.load_latest(namespace)[1] == bytes([index])
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
        other = SqliteCheckpointStore(path)
        for index in range(writers):
            kept = [step for step in range(200) if step % 10 < 5]
            assert store.steps(f"loader/{index}") == kept
            assert other.steps(f"loader/{index}") == kept
            assert other.steps(f"plans/{index}") == list(range(9, 200, 10))
        store.close()
        other.close()
