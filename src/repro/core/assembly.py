"""Prepared-sample columns: the loader → constructor hand-off format.

Prepared samples travel between Source Loaders and Data Constructors as
struct-of-arrays columns, never as per-sample objects:

- :class:`StagedColumns` — the Source Loader's staging store: one extend per
  prepared chunk, and a *vectorized* ``take`` that gathers a fetch's rows
  with fancy indexing.  Removals tombstone rows; compaction runs only when
  tombstones pile up (same amortised-O(1) discipline as
  :class:`~repro.core.columns.ColumnarBufferCache`).
- :class:`PreparedColumns` — an immutable column slice handed from loader to
  constructor.  It travels *by reference* through the GCS freeze-on-put path
  (``put(..., immutable=True)``), so a fetch moves one key instead of copying
  per-sample records, and the Data Constructor's vectorized collation kernels
  consume its token-length arrays directly.
"""

from __future__ import annotations

import numpy as np

from repro.data.samples import SampleMetadata
from repro.errors import PlanError

#: Tombstone fraction beyond which staged backing arrays are compacted.
COMPACT_TOMBSTONE_FRACTION = 0.5
#: Never bother compacting arrays smaller than this.
COMPACT_MIN_ROWS = 64


class PreparedColumns:
    """Immutable struct-of-arrays view over one fetch's prepared samples.

    Attributes
    ----------
    sample_ids / text_tokens / image_tokens / total_tokens / transferred_bytes:
        ``int64`` arrays, one entry per prepared sample, in fetch order.
    """

    __slots__ = (
        "sample_ids",
        "text_tokens",
        "image_tokens",
        "total_tokens",
        "transferred_bytes",
        "_order",
        "_sorted_ids",
    )

    def __init__(
        self,
        sample_ids: np.ndarray,
        text_tokens: np.ndarray,
        image_tokens: np.ndarray,
        transferred_bytes: np.ndarray,
    ) -> None:
        self.sample_ids = sample_ids
        self.text_tokens = text_tokens
        self.image_tokens = image_tokens
        self.total_tokens = text_tokens + image_tokens
        self.transferred_bytes = transferred_bytes
        # Lazy id -> row index (built on first lookup, shared by every
        # assignment of a step).
        self._order: np.ndarray | None = None
        self._sorted_ids: np.ndarray | None = None

    @classmethod
    def empty(cls) -> "PreparedColumns":
        return cls(
            sample_ids=np.empty(0, dtype=np.int64),
            text_tokens=np.empty(0, dtype=np.int64),
            image_tokens=np.empty(0, dtype=np.int64),
            transferred_bytes=np.empty(0, dtype=np.int64),
        )

    @classmethod
    def concat(cls, parts: list["PreparedColumns"]) -> "PreparedColumns":
        if not parts:
            return cls.empty()
        if len(parts) == 1:
            return parts[0]
        return cls(
            sample_ids=np.concatenate([part.sample_ids for part in parts]),
            text_tokens=np.concatenate([part.text_tokens for part in parts]),
            image_tokens=np.concatenate([part.image_tokens for part in parts]),
            transferred_bytes=np.concatenate(
                [part.transferred_bytes for part in parts]
            ),
        )

    def __len__(self) -> int:
        return len(self.sample_ids)

    def total_bytes(self) -> int:
        return int(self.transferred_bytes.sum()) if len(self) else 0

    def lookup(self, sample_ids: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """Row indices for ``sample_ids``; also returns the ids not present.

        One ``searchsorted`` over a lazily built sorted index — O(k log n)
        for a k-id assignment against n prepared rows.
        """
        if self._order is None:
            self._order = np.argsort(self.sample_ids, kind="stable")
            self._sorted_ids = self.sample_ids[self._order]
        wanted = np.asarray(sample_ids, dtype=np.int64)
        if len(self) == 0:
            return np.empty(0, dtype=np.intp), wanted.tolist()
        positions = np.searchsorted(self._sorted_ids, wanted)
        clipped = np.minimum(positions, len(self._sorted_ids) - 1)
        found = self._sorted_ids[clipped] == wanted
        if not found.all():
            missing = wanted[~found].tolist()
            return self._order[clipped[found]], missing
        return self._order[clipped], []


class StagedColumns:
    """The Source Loader's columnar staging store (prepared, not yet fetched).

    Appends accumulate in pending lists; ``take``/``drop`` tombstone rows and
    compact lazily once at least half the backing rows are dead.  A fetch's
    rows come back in the requested id order.
    """

    def __init__(self) -> None:
        self._ids: np.ndarray = np.empty(0, dtype=np.int64)
        self._text: np.ndarray = np.empty(0, dtype=np.int64)
        self._image: np.ndarray = np.empty(0, dtype=np.int64)
        self._bytes: np.ndarray = np.empty(0, dtype=np.int64)
        self._alive: np.ndarray = np.empty(0, dtype=bool)
        self._pending: list[tuple] = []
        self._pos: dict[int, int] = {}
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def append(self, metadata: SampleMetadata, transferred_bytes: int) -> None:
        self.extend(
            [(metadata.sample_id, metadata.text_tokens, metadata.image_tokens, transferred_bytes)]
        )

    def extend(self, rows: list[tuple[int, int, int, int]]) -> None:
        """Stage ``(sample_id, text_tokens, image_tokens, transferred_bytes)`` rows."""
        start = len(self._ids) + len(self._pending)
        self._pending.extend(rows)
        self._pos.update((row[0], start + offset) for offset, row in enumerate(rows))
        self._live += len(rows)

    def __contains__(self, sample_id: int) -> bool:
        return sample_id in self._pos

    def take(self, sample_ids: list[int]) -> tuple[PreparedColumns, int]:
        """Remove and return the rows for ``sample_ids`` (in that order).

        Returns ``(columns, released_bytes)``; raises :class:`PlanError` when
        any id is not staged.
        """
        self._flush_pending()
        rows = np.empty(len(sample_ids), dtype=np.intp)
        for index, sample_id in enumerate(sample_ids):
            position = self._pos.pop(sample_id, None)
            if position is None:
                raise PlanError(f"no staged sample {sample_id}")
            rows[index] = position
        columns = PreparedColumns(
            sample_ids=self._ids[rows],
            text_tokens=self._text[rows],
            image_tokens=self._image[rows],
            transferred_bytes=self._bytes[rows],
        )
        self._alive[rows] = False
        self._live -= len(sample_ids)
        self._maybe_compact()
        return columns, columns.total_bytes()

    def drop(self, sample_ids: list[int]) -> tuple[int, int]:
        """Tombstone any of ``sample_ids`` present; returns (count, bytes)."""
        dropped = 0
        released = 0
        self._flush_pending()
        for sample_id in sample_ids:
            position = self._pos.pop(sample_id, None)
            if position is None:
                continue
            self._alive[position] = False
            released += int(self._bytes[position])
            dropped += 1
        self._live -= dropped
        self._maybe_compact()
        return dropped, released

    def drop_all(self) -> int:
        """Clear the store; returns the released payload bytes."""
        self._flush_pending()
        released = int(self._bytes[self._alive].sum()) if len(self._alive) else 0
        self.__init__()
        return released

    # -- internals ----------------------------------------------------------------

    def _flush_pending(self) -> None:
        if not self._pending:
            return
        ids, text, image, sizes = np.array(self._pending, dtype=np.int64).T
        self._ids = np.concatenate([self._ids, ids])
        self._text = np.concatenate([self._text, text])
        self._image = np.concatenate([self._image, image])
        self._bytes = np.concatenate([self._bytes, sizes])
        self._alive = np.concatenate([self._alive, np.ones(len(ids), dtype=bool)])
        self._pending.clear()

    def _maybe_compact(self) -> None:
        if (
            len(self._ids) <= COMPACT_MIN_ROWS
            or self._live >= COMPACT_TOMBSTONE_FRACTION * len(self._ids)
        ):
            return
        keep = self._alive
        self._ids = self._ids[keep]
        self._text = self._text[keep]
        self._image = self._image[keep]
        self._bytes = self._bytes[keep]
        self._alive = np.ones(len(self._ids), dtype=bool)
        self._pos = {int(sample_id): index for index, sample_id in enumerate(self._ids)}
