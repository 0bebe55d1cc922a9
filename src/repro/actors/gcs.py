"""Global Control Store (GCS).

A strongly consistent key/value store plus actor registry, mirroring the role
Ray's GCS plays for MegaScale-Data: core coordinators (Planner, Data
Constructors) persist their recovery state here so that automatic restarts can
resume from the last checkpoint (Sec. 6.1, Fault Tolerance).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from types import MappingProxyType

#: Scalar types that are immutable by construction.
_IMMUTABLE_SCALARS = (type(None), bool, int, float, complex, str, bytes)
#: Nesting depth past which a tuple or frozenset is treated as mutable.
_MAX_NESTING = 6


def _is_deeply_immutable(value: object, depth: int) -> bool:
    """Conservatively decide whether ``value`` can never be mutated.

    Tuples and frozensets are immutable iff their members are; anything else
    container-like (or too deeply nested to verify cheaply) is treated as
    mutable and keeps the defensive deep-copy behaviour.
    """
    if isinstance(value, _IMMUTABLE_SCALARS):
        return True
    if depth <= 0:
        return False
    if isinstance(value, (tuple, frozenset)):
        return all(_is_deeply_immutable(item, depth - 1) for item in value)
    return False


@dataclass(slots=True)
class _VersionedValue:
    value: object
    version: int
    #: Immutable payloads are stored and served by reference (no copies).
    frozen: bool = False


@dataclass
class GlobalControlStore:
    """In-memory KV store with versioning, namespaces and an actor registry."""

    _store: dict[str, _VersionedValue] = field(default_factory=dict, init=False)
    _actor_registry: set[str] = field(default_factory=set, init=False)

    # -- key/value ---------------------------------------------------------------

    def put(self, key: str, value: object, immutable: bool | None = None) -> int:
        """Store ``value``; returns the new version number.

        Mutable payloads are deep-copied in (and back out on :meth:`get`) so
        neither side can alias the stored state.  Immutable payloads —
        auto-detected scalars/tuples, or caller-declared via
        ``immutable=True`` for read-only structures like prepared column
        slices — skip both copies entirely, which matters on the per-step
        hand-off path.  A caller-declared-immutable *mapping* is
        shallow-copied once behind a read-only ``MappingProxyType``, so
        neither the putter nor any reader can mutate versioned state in
        place (nested values are the caller's responsibility — use tuples).
        """
        current = self._store.get(key)
        version = (current.version + 1) if current else 1
        frozen = immutable if immutable is not None else _is_deeply_immutable(value, _MAX_NESTING)
        if frozen and isinstance(value, dict):
            stored: object = MappingProxyType(dict(value))
        elif frozen:
            stored = value
        else:
            stored = copy.deepcopy(value)
        self._store[key] = _VersionedValue(value=stored, version=version, frozen=frozen)
        return version

    def get(self, key: str, default: object = None) -> object:
        entry = self._store.get(key)
        if entry is None:
            return default
        if entry.frozen:
            return entry.value
        return copy.deepcopy(entry.value)

    def version(self, key: str) -> int:
        entry = self._store.get(key)
        return entry.version if entry else 0

    def delete(self, key: str) -> None:
        self._store.pop(key, None)

    def take(self, key: str) -> object:
        """Get and delete in one call — the hand-off primitive.

        Frozen payloads come back by reference (zero-copy); the key is
        removed either way, so one-shot transfers like the loader →
        constructor prepared-column hand-off don't accumulate entries.
        """
        entry = self._store.pop(key, None)
        if entry is None:
            return None
        if entry.frozen:
            return entry.value
        return copy.deepcopy(entry.value)

    def keys(self, prefix: str = "") -> list[str]:
        return sorted(key for key in self._store if key.startswith(prefix))

    # -- actor registry -----------------------------------------------------------

    def register_actor(self, name: str) -> None:
        self._actor_registry.add(name)

    def deregister_actor(self, name: str) -> None:
        self._actor_registry.discard(name)

    def list_actors(self) -> list[str]:
        return sorted(self._actor_registry)
