"""Prepared-sample columns: the loader → constructor hand-off format.

Prepared samples travel from Source Loaders to Data Constructors as one
:class:`PreparedColumns` per fetch — an immutable column slice, never
per-sample objects.  A Source Loader keeps its buffer as typed columns, and a
ticket holds the slots of the rows it took; the hand-off copies just those
rows out of the loader's id, token and staged-bytes columns into the slice.
The slice travels *by reference* through the GCS freeze-on-put path
(``put(..., immutable=True)``), so a fetch moves one key instead of copying
per-sample records, and the Data Constructor's vectorized collation kernels
consume its token-length arrays directly.
"""

from __future__ import annotations

import numpy as np


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
