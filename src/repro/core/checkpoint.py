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
* :class:`SqliteCheckpointStore` — a real database via
  :class:`repro.storage.kvstore.SqliteKVStore`, demonstrating that every
  payload the control plane checkpoints survives pickling to a durable
  medium (the ``checkpointer_sqlite`` idiom).

Payload conventions
-------------------
Stores are namespaced (``planner/plans``, ``delivery/manifests``, ``run``) and
step-indexed.  A ``planner/plans`` row, like the ``run`` entry's plan history,
is a :class:`~repro.core.plans.PlanRecord`: demanded ids in one
``array("q")``, no sample metadata.  A ``delivery/manifests`` row, kept for
every delivered step, holds each constructor's ids as an ``array("q")``.
Loader differential checkpoints are not rows here: they live in
:class:`~repro.core.fault_tolerance.FaultToleranceManager`'s in-memory
history, and the ``run`` entry embeds the ones a whole-run restore needs.

Payloads must be picklable for the SQLite backend; the in-memory backend keeps
live references, so callers should only store plain-data snapshots (dicts,
lists, frozen records) — never live actors or objects the step path mutates.
"""

from __future__ import annotations

import pickle
from typing import Any

from repro.errors import ReproError
from repro.storage.filesystem import SimulatedFileSystem
from repro.storage.kvstore import SqliteKVStore


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

    def load_latest(self, namespace: str, max_step: int | None = None) -> tuple[int, Any] | None:
        """Newest ``(step, payload)`` in ``namespace`` with step <= max_step."""
        raise NotImplementedError

    def steps(self, namespace: str) -> list[int]:
        raise NotImplementedError

    def delete_from(self, namespace: str, step: int) -> int:
        """Drop entries with step >= ``step``; returns how many were dropped."""
        raise NotImplementedError

    def delete_below(self, namespace: str, step: int) -> int:
        """Drop entries with step < ``step`` (compaction); returns how many."""
        raise NotImplementedError

    def clear(self) -> None:
        raise NotImplementedError


class NamespacedCheckpointStore(CheckpointStore):
    """View of a shared store with every namespace prefixed by a tenant scope.

    Multi-tenant deployments hand each job this wrapper around the one shared
    backend so ``planner/plans``, ``run``, ``delivery/manifests`` etc. never
    collide across tenants.  ``clear()`` is always refused, to protect
    co-tenants: clear the backend store explicitly.
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

    def load_latest(self, namespace: str, max_step: int | None = None) -> tuple[int, Any] | None:
        return self.backend.load_latest(self._scoped(namespace), max_step)

    def steps(self, namespace: str) -> list[int]:
        return self.backend.steps(self._scoped(namespace))

    def delete_from(self, namespace: str, step: int) -> int:
        return self.backend.delete_from(self._scoped(namespace), step)

    def delete_below(self, namespace: str, step: int) -> int:
        return self.backend.delete_below(self._scoped(namespace), step)

    def clear(self) -> None:
        raise CheckpointError(
            "refusing to clear a shared store through a tenant-scoped view; "
            "clear the backend store explicitly"
        )


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

    def load_latest(self, namespace: str, max_step: int | None = None) -> tuple[int, Any] | None:
        entries = self._data.get(namespace)
        if not entries:
            return None
        eligible = [s for s in entries if max_step is None or s <= max_step]
        if not eligible:
            return None
        step = max(eligible)
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

    def clear(self) -> None:
        self._data.clear()


class SqliteCheckpointStore(CheckpointStore):
    """SQLite-backed store; payloads round-trip through :mod:`pickle`.

    Built on :class:`repro.storage.kvstore.SqliteKVStore` so the SQL lives in
    the storage package and checkpoint bytes can be mirrored into the
    simulated filesystem's accounting.
    """

    def __init__(
        self,
        path: str = ":memory:",
        filesystem: SimulatedFileSystem | None = None,
    ) -> None:
        self._kv = SqliteKVStore(path, filesystem=filesystem)

    def save(self, namespace: str, step: int, payload: Any) -> None:
        try:
            blob = pickle.dumps(payload)
        except Exception as exc:  # pragma: no cover - defensive
            raise CheckpointError(
                f"checkpoint payload for {namespace!r} step {step} is not picklable: {exc}"
            ) from exc
        self._kv.put(namespace, step, blob)

    def save_many(self, entries: list[tuple[str, int, Any]]) -> None:
        blobs = []
        for namespace, step, payload in entries:
            try:
                blobs.append((namespace, step, pickle.dumps(payload)))
            except Exception as exc:  # pragma: no cover - defensive
                raise CheckpointError(
                    f"checkpoint payload for {namespace!r} step {step} is not picklable: {exc}"
                ) from exc
        self._kv.put_many(blobs)

    def load(self, namespace: str, step: int) -> Any | None:
        blob = self._kv.get(namespace, step)
        return None if blob is None else pickle.loads(blob)

    def load_latest(self, namespace: str, max_step: int | None = None) -> tuple[int, Any] | None:
        found = self._kv.latest(namespace, max_step=max_step)
        if found is None:
            return None
        step, blob = found
        return step, pickle.loads(blob)

    def steps(self, namespace: str) -> list[int]:
        return self._kv.steps(namespace)

    def delete_from(self, namespace: str, step: int) -> int:
        return self._kv.delete_from(namespace, step)

    def delete_below(self, namespace: str, step: int) -> int:
        return self._kv.delete_below(namespace, step)

    def clear(self) -> None:
        self._kv.clear()

    def close(self) -> None:
        self._kv.close()
