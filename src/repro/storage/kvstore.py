"""A small durable key-value table on stdlib :mod:`sqlite3`.

The control plane persists checkpoints through
:class:`repro.core.checkpoint.SqliteCheckpointStore`, which delegates the
actual storage to this helper.  Keeping the SQL in ``storage/`` mirrors the
real system's layering: the core never talks to a database directly, it goes
through the storage package, and the byte footprint of every write can be
mirrored into a :class:`~repro.storage.filesystem.SimulatedFileSystem` so the
simulated storage accounting sees checkpoint traffic too.

The schema is a single table::

    checkpoints(namespace TEXT, step INTEGER, payload BLOB,
                PRIMARY KEY (namespace, step))

Payloads are opaque byte strings; serialization policy belongs to the caller.
"""

from __future__ import annotations

import sqlite3
import threading

from repro.storage.filesystem import SimulatedFileSystem


class SqliteKVStore:
    """Namespaced, step-indexed blob storage backed by SQLite.

    Parameters
    ----------
    path:
        Database location.  Defaults to ``":memory:"`` which is still a real
        SQLite database (WAL, SQL, constraints), just not persisted to disk —
        the right default for simulation runs.
    filesystem:
        Optional simulated filesystem; when given, every ``put`` mirrors the
        payload size under ``/checkpoints/<namespace>/<step>`` so storage
        dashboards and byte accounting include checkpoint traffic.
    """

    def __init__(
        self,
        path: str = ":memory:",
        filesystem: SimulatedFileSystem | None = None,
    ) -> None:
        self.path = path
        self.filesystem = filesystem
        # Wallclock actors checkpoint from their lane threads: one connection
        # shared across threads, every statement (and its commit) under a lock.
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._lock = threading.Lock()
        # Write-ahead logging + NORMAL fsync policy: checkpoint writers land
        # on the WAL (sequential appends, readers never block) and fsyncs
        # move off the per-transaction critical path — the standard durable
        # spill configuration.  In-memory databases ignore WAL; executing the
        # pragmas there is harmless.
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS checkpoints ("
            " namespace TEXT NOT NULL,"
            " step INTEGER NOT NULL,"
            " payload BLOB NOT NULL,"
            " PRIMARY KEY (namespace, step))"
        )
        self._conn.commit()

    # -- primitives ------------------------------------------------------------

    def _write(self, sql: str, params, many: bool = False) -> int:
        """Run one write statement and commit it; returns the rows it touched."""
        with self._lock:
            cursor = (self._conn.executemany if many else self._conn.execute)(sql, params)
            self._conn.commit()
        return cursor.rowcount

    def _read(self, sql: str, params) -> list[tuple]:
        with self._lock:
            return self._conn.execute(sql, params).fetchall()

    def put(self, namespace: str, step: int, payload: bytes) -> None:
        self._write(
            "INSERT OR REPLACE INTO checkpoints (namespace, step, payload) VALUES (?, ?, ?)",
            (namespace, int(step), payload),
        )
        if self.filesystem is not None:
            self.filesystem.write(
                f"/checkpoints/{namespace}/{int(step)}",
                None,
                size_bytes=len(payload),
                kind="checkpoint",
            )

    def put_many(self, entries: list[tuple[str, int, bytes]]) -> None:
        """Write ``(namespace, step, payload)`` triples in one transaction.

        One commit (and one WAL fsync) for the whole batch instead of one per
        blob.  No control-plane path batches its writes today: plans, delivery
        manifests and run entries each go through :meth:`put`.
        """
        if not entries:
            return
        self._write(
            "INSERT OR REPLACE INTO checkpoints (namespace, step, payload) VALUES (?, ?, ?)",
            [(namespace, int(step), payload) for namespace, step, payload in entries],
            many=True,
        )
        if self.filesystem is not None:
            for namespace, step, payload in entries:
                self.filesystem.write(
                    f"/checkpoints/{namespace}/{int(step)}",
                    None,
                    size_bytes=len(payload),
                    kind="checkpoint",
                )

    def get(self, namespace: str, step: int) -> bytes | None:
        rows = self._read(
            "SELECT payload FROM checkpoints WHERE namespace = ? AND step = ?",
            (namespace, int(step)),
        )
        return rows[0][0] if rows else None

    def latest(self, namespace: str, max_step: int | None = None) -> tuple[int, bytes] | None:
        if max_step is None:
            rows = self._read(
                "SELECT step, payload FROM checkpoints WHERE namespace = ?"
                " ORDER BY step DESC LIMIT 1",
                (namespace,),
            )
        else:
            rows = self._read(
                "SELECT step, payload FROM checkpoints WHERE namespace = ? AND step <= ?"
                " ORDER BY step DESC LIMIT 1",
                (namespace, int(max_step)),
            )
        return (int(rows[0][0]), rows[0][1]) if rows else None

    def steps(self, namespace: str) -> list[int]:
        rows = self._read(
            "SELECT step FROM checkpoints WHERE namespace = ? ORDER BY step",
            (namespace,),
        )
        return [int(row[0]) for row in rows]

    def delete_from(self, namespace: str, step: int) -> int:
        """Drop every entry in ``namespace`` with step >= ``step``."""
        return self._write(
            "DELETE FROM checkpoints WHERE namespace = ? AND step >= ?",
            (namespace, int(step)),
        )

    def delete_below(self, namespace: str, step: int) -> int:
        """Drop every entry in ``namespace`` with step < ``step``, in one
        ``DELETE``, and their mirrored files."""
        with self._lock:
            steps = self._conn.execute(
                "DELETE FROM checkpoints WHERE namespace = ? AND step < ? RETURNING step",
                (namespace, int(step)),
            ).fetchall()
            self._conn.commit()
        if self.filesystem is not None:
            for (deleted,) in steps:
                path = f"/checkpoints/{namespace}/{int(deleted)}"
                if self.filesystem.exists(path):
                    self.filesystem.delete(path)
        return len(steps)

    def clear(self) -> None:
        self._write("DELETE FROM checkpoints", ())

    def close(self) -> None:
        with self._lock:
            self._conn.close()
