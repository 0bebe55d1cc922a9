"""Durable control-plane checkpoint stores (Sec. 6.1, bounded replay).

Recovery in the paper's system is *differential*: loaders persist small cursor
checkpoints on an interval, and a failed component restores the latest
checkpoint and replays only the post-checkpoint suffix of the plan history.
For that story to hold at production run lengths, the control-plane state that
replay depends on — plan history beyond the replay window, fleet topology,
the active mixture — must itself be durable rather than rebuilt from
genesis, and bounded rather than kept from genesis: the store keeps the plan
records from the replay floor on (older rows are dropped with
:meth:`CheckpointStore.delete_below`, see
:meth:`~repro.core.recovery.FleetRecovery.compact`) and the newest ``run``
entry.

:class:`CheckpointStore` is the pluggable persistence interface.  Two backends
ship here:

* :class:`InMemoryCheckpointStore` — dict-backed, zero-cost, the default for
  simulation runs and unit tests.
* :class:`SqliteCheckpointStore` — a real stdlib :mod:`sqlite3` database,
  demonstrating that every payload the control plane checkpoints survives
  pickling to a durable medium (the ``checkpointer_sqlite`` idiom).

Payload conventions
-------------------
Stores are namespaced (``planner/plans``, ``delivery/manifests``, ``run``) and
step-indexed.  A ``planner/plans`` row, like the ``run`` entry's plan history,
is a :class:`~repro.core.plans.PlanRecord`: demanded ids in one
``array("q")``, no sample metadata.  A ``delivery/manifests`` row, kept for
every delivered step, holds each constructor's ids as an ``array("q")``.
Loader differential checkpoints are not rows here: they live in
:class:`~repro.core.fault_tolerance.FaultToleranceManager`'s in-memory
per-shard history, and the ``run`` entry embeds, per shard, the one a
whole-run restore needs.

Payloads must be picklable for the SQLite backend; the in-memory backend keeps
live references, so callers should only store plain-data snapshots (dicts,
lists, frozen records) — never live actors or objects the step path mutates.
"""

from __future__ import annotations

import pickle
import sqlite3
import threading
from typing import Any

from repro.errors import ReproError
from repro.storage.filesystem import SimulatedFileSystem


class CheckpointError(ReproError):
    """A checkpoint could not be stored or restored."""


class CheckpointStore:
    """Interface for namespaced, step-indexed checkpoint persistence."""

    def save(self, namespace: str, step: int, payload: Any) -> None:
        raise NotImplementedError

    def save_many(self, entries: list[tuple[str, int, Any]]) -> None:
        """Persist ``(namespace, step, payload)`` triples as one batch.

        Backends with transactional writes override this to commit the whole
        batch atomically (one fsync per batch instead of one per entry); the
        default falls back to sequential :meth:`save` calls.
        """
        for namespace, step, payload in entries:
            self.save(namespace, step, payload)

    def load(self, namespace: str, step: int) -> Any | None:
        raise NotImplementedError

    def load_latest(self, namespace: str) -> tuple[int, Any] | None:
        """Newest ``(step, payload)`` in ``namespace``."""
        raise NotImplementedError

    def steps(self, namespace: str) -> list[int]:
        raise NotImplementedError

    def delete_from(self, namespace: str, step: int) -> int:
        """Drop entries with step >= ``step``; returns how many were dropped."""
        raise NotImplementedError

    def delete_below(self, namespace: str, step: int) -> int:
        """Drop entries with step < ``step`` (compaction); returns how many."""
        raise NotImplementedError


class NamespacedCheckpointStore(CheckpointStore):
    """View of a shared store with every namespace prefixed by a tenant scope.

    Multi-tenant deployments hand each job this wrapper around the one shared
    backend so ``planner/plans``, ``run``, ``delivery/manifests`` etc. never
    collide across tenants.
    """

    def __init__(self, store: CheckpointStore, prefix: str) -> None:
        if not prefix:
            raise CheckpointError("a namespaced store needs a non-empty prefix")
        # Idempotent wrapping: re-scoping a scoped view nests prefixes on the
        # same backend instead of stacking wrapper objects.
        if isinstance(store, NamespacedCheckpointStore):
            prefix = f"{store.prefix}/{prefix}"
            store = store.backend
        self.backend = store
        self.prefix = prefix

    def _scoped(self, namespace: str) -> str:
        return f"{self.prefix}/{namespace}"

    def save(self, namespace: str, step: int, payload: Any) -> None:
        self.backend.save(self._scoped(namespace), step, payload)

    def save_many(self, entries: list[tuple[str, int, Any]]) -> None:
        self.backend.save_many(
            [(self._scoped(namespace), step, payload) for namespace, step, payload in entries]
        )

    def load(self, namespace: str, step: int) -> Any | None:
        return self.backend.load(self._scoped(namespace), step)

    def load_latest(self, namespace: str) -> tuple[int, Any] | None:
        return self.backend.load_latest(self._scoped(namespace))

    def steps(self, namespace: str) -> list[int]:
        return self.backend.steps(self._scoped(namespace))

    def delete_from(self, namespace: str, step: int) -> int:
        return self.backend.delete_from(self._scoped(namespace), step)

    def delete_below(self, namespace: str, step: int) -> int:
        return self.backend.delete_below(self._scoped(namespace), step)


class InMemoryCheckpointStore(CheckpointStore):
    """Dict-backed store; payloads are held by reference.

    A round-trip through :func:`pickle.dumps` is deliberately *not* performed
    here — simulation runs checkpoint on every differential interval, and the
    in-memory backend keeps that free.  The SQLite backend (and the unit
    tests) guarantee the payloads stay picklable.
    """

    def __init__(self) -> None:
        self._data: dict[str, dict[int, Any]] = {}

    def save(self, namespace: str, step: int, payload: Any) -> None:
        self._data.setdefault(namespace, {})[int(step)] = payload

    def load(self, namespace: str, step: int) -> Any | None:
        return self._data.get(namespace, {}).get(int(step))

    def load_latest(self, namespace: str) -> tuple[int, Any] | None:
        entries = self._data.get(namespace)
        if not entries:
            return None
        step = max(entries)
        return step, entries[step]

    def steps(self, namespace: str) -> list[int]:
        return sorted(self._data.get(namespace, {}))

    def delete_from(self, namespace: str, step: int) -> int:
        return self._delete(namespace, lambda s: s >= step)

    def delete_below(self, namespace: str, step: int) -> int:
        return self._delete(namespace, lambda s: s < step)

    def _delete(self, namespace: str, doomed_step) -> int:
        entries = self._data.get(namespace, {})
        doomed = [s for s in entries if doomed_step(s)]
        for s in doomed:
            del entries[s]
        return len(doomed)


class SqliteCheckpointStore(CheckpointStore):
    """SQLite-backed store; payloads round-trip through :mod:`pickle`.

    One table holds every namespace::

        checkpoints(namespace TEXT, step INTEGER, payload BLOB,
                    PRIMARY KEY (namespace, step))

    ``path`` defaults to ``":memory:"``, still a real SQLite database (SQL,
    constraints), just not persisted to disk.  With a ``filesystem``, every
    row is mirrored as a file of the payload's size under
    ``/checkpoints/<namespace>/<step>``, so storage byte accounting sees
    checkpoint traffic; a row and its file are written and deleted together.
    """

    def __init__(
        self,
        path: str = ":memory:",
        filesystem: SimulatedFileSystem | None = None,
    ) -> None:
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

    def save(self, namespace: str, step: int, payload: Any) -> None:
        self._put([_row(namespace, step, payload)])

    def save_many(self, entries: list[tuple[str, int, Any]]) -> None:
        """Write every entry in one transaction: one commit (and one WAL
        fsync) for the batch.  No control-plane path batches its writes
        today: plans, delivery manifests and run entries each :meth:`save`."""
        self._put([_row(namespace, step, payload) for namespace, step, payload in entries])

    def load(self, namespace: str, step: int) -> Any | None:
        rows = self._read(
            "SELECT payload FROM checkpoints WHERE namespace = ? AND step = ?",
            (namespace, int(step)),
        )
        return pickle.loads(rows[0][0]) if rows else None

    def load_latest(self, namespace: str) -> tuple[int, Any] | None:
        rows = self._read(
            "SELECT step, payload FROM checkpoints WHERE namespace = ?"
            " ORDER BY step DESC LIMIT 1",
            (namespace,),
        )
        return (int(rows[0][0]), pickle.loads(rows[0][1])) if rows else None

    def steps(self, namespace: str) -> list[int]:
        rows = self._read(
            "SELECT step FROM checkpoints WHERE namespace = ? ORDER BY step", (namespace,)
        )
        return [int(row[0]) for row in rows]

    def delete_from(self, namespace: str, step: int) -> int:
        return self._delete(namespace, "step >= ?", step)

    def delete_below(self, namespace: str, step: int) -> int:
        return self._delete(namespace, "step < ?", step)

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def _read(self, sql: str, params) -> list[tuple]:
        with self._lock:
            return self._conn.execute(sql, params).fetchall()

    def _put(self, rows: list[tuple[str, int, bytes]]) -> None:
        """Insert or replace ``rows`` in one transaction, then mirror them."""
        if not rows:
            return
        with self._lock:
            self._conn.executemany(
                "INSERT OR REPLACE INTO checkpoints (namespace, step, payload) VALUES (?, ?, ?)",
                rows,
            )
            self._conn.commit()
        if self.filesystem is not None:
            for namespace, step, payload in rows:
                self.filesystem.write(
                    f"/checkpoints/{namespace}/{step}",
                    None,
                    size_bytes=len(payload),
                    kind="checkpoint",
                )

    def _delete(self, namespace: str, condition: str, step: int) -> int:
        """Drop the rows of ``namespace`` whose step meets ``condition`` in
        one ``DELETE``, and their mirrored files; returns how many."""
        with self._lock:
            deleted = self._conn.execute(
                f"DELETE FROM checkpoints WHERE namespace = ? AND {condition} RETURNING step",
                (namespace, int(step)),
            ).fetchall()
            self._conn.commit()
        if self.filesystem is not None:
            for (gone,) in deleted:
                path = f"/checkpoints/{namespace}/{gone}"
                if self.filesystem.exists(path):
                    self.filesystem.delete(path)
        return len(deleted)


def _row(namespace: str, step: int, payload: Any) -> tuple[str, int, bytes]:
    """One ``checkpoints`` row: the payload pickled."""
    try:
        blob = pickle.dumps(payload)
    except Exception as exc:
        raise CheckpointError(
            f"checkpoint payload for {namespace!r} step {step} is not picklable: {exc}"
        ) from exc
    return namespace, int(step), blob
