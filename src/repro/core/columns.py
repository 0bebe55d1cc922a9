"""Columnar (struct-of-arrays) views over buffered sample metadata.

Buffered :class:`~repro.data.samples.SampleMetadata` reaches the Planner and
the DGraph as columns, so a planning cycle costs numpy index arithmetic over
the buffered set rather than per-sample Python object churn.  Two building
blocks:

- :class:`SampleColumns` — an immutable struct-of-arrays view over a set of
  buffered samples: numpy arrays for sample id, token counts and source
  codes, plus an object array of the metadata records themselves so plan
  finalization emits the very :class:`SampleMetadata` objects the loaders
  buffered.  Selection, filtering, rotation and concatenation are all
  fancy-indexing / ``np.concatenate`` — C speed, no per-sample Python.
- :class:`ColumnarBufferCache` — the Planner's persistent per-loader mirror
  of one Source Loader's read buffer, updated *incrementally* from the
  loader's :meth:`~repro.core.source_loader.SourceLoader.buffer_delta` event
  log instead of re-copying the full buffer every step.  Removals tombstone
  rows and appends accumulate in pending column lists, so the per-step cost
  is O(delta) amortised; compaction runs only when tombstones pile up.

Row order is authoritative: a loader's buffer only ever appends at the end
and removes from the middle, and the cache replays exactly those operations,
so :meth:`ColumnarBufferCache.columns` reproduces the loader's buffer order
byte for byte — the property plan determinism rests on.
"""

from __future__ import annotations

import numpy as np

from repro.data.samples import SampleMetadata

#: Tombstone fraction beyond which the cache compacts its backing arrays.
COMPACT_TOMBSTONE_FRACTION = 0.5
#: Never bother compacting arrays smaller than this.
COMPACT_MIN_ROWS = 64


class SampleColumns:
    """Immutable struct-of-arrays view over a sequence of sample metadata.

    Attributes
    ----------
    sample_ids / text_tokens / image_tokens / total_tokens:
        ``int64`` arrays, one entry per sample, in buffer (arrival) order.
    source_codes:
        ``int32`` array of indices into :attr:`sources`.
    sources:
        Tuple of source names referenced by :attr:`source_codes`.
    metas:
        ``object`` array of the underlying :class:`SampleMetadata` records —
        fancy indexing over it keeps selection vectorized while letting the
        finalized plan carry the very objects the loaders buffered.
    """

    __slots__ = (
        "sample_ids",
        "text_tokens",
        "image_tokens",
        "total_tokens",
        "source_codes",
        "sources",
        "metas",
    )

    def __init__(
        self,
        sample_ids: np.ndarray,
        text_tokens: np.ndarray,
        image_tokens: np.ndarray,
        source_codes: np.ndarray,
        sources: tuple[str, ...],
        metas: np.ndarray,
    ) -> None:
        self.sample_ids = sample_ids
        self.text_tokens = text_tokens
        self.image_tokens = image_tokens
        self.total_tokens = text_tokens + image_tokens
        self.source_codes = source_codes
        self.sources = sources
        self.metas = metas

    # -- constructors ---------------------------------------------------------------

    @classmethod
    def empty(cls, sources: tuple[str, ...] = ()) -> "SampleColumns":
        return cls(
            sample_ids=np.empty(0, dtype=np.int64),
            text_tokens=np.empty(0, dtype=np.int64),
            image_tokens=np.empty(0, dtype=np.int64),
            source_codes=np.empty(0, dtype=np.int32),
            sources=tuple(sources),
            metas=np.empty(0, dtype=object),
        )

    @classmethod
    def from_samples(cls, samples: list[SampleMetadata]) -> "SampleColumns":
        """Build columns from metadata objects (one attribute pass per sample).

        Used for snapshots/resyncs and as the generic fallback; the steady
        state maintains columns incrementally via :class:`ColumnarBufferCache`.
        """
        if not samples:
            return cls.empty()
        count = len(samples)
        codes = np.empty(count, dtype=np.int32)
        code_of: dict[str, int] = {}
        for index, sample in enumerate(samples):
            code = code_of.setdefault(sample.source, len(code_of))
            codes[index] = code
        metas = np.empty(count, dtype=object)
        metas[:] = samples
        return cls(
            sample_ids=np.fromiter(
                (s.sample_id for s in samples), dtype=np.int64, count=count
            ),
            text_tokens=np.fromiter(
                (s.text_tokens for s in samples), dtype=np.int64, count=count
            ),
            image_tokens=np.fromiter(
                (s.image_tokens for s in samples), dtype=np.int64, count=count
            ),
            source_codes=codes,
            sources=tuple(code_of),
            metas=metas,
        )

    @classmethod
    def coerce(cls, samples) -> "SampleColumns":
        """One column set from any accepted metadata input.

        ``samples`` is a :class:`SampleColumns` (returned as is), a flat
        collection of metadata records, or a ``source -> records | columns``
        mapping (concatenated in mapping order).
        """
        if isinstance(samples, SampleColumns):
            return samples
        if isinstance(samples, dict):
            return cls.concat([cls.coerce(value) for value in samples.values()])
        return cls.from_samples(list(samples))

    @classmethod
    def concat(cls, parts: list["SampleColumns"]) -> "SampleColumns":
        """Concatenate column sets, merging (and deduplicating) source tables."""
        if not parts:
            return cls.empty()
        if len(parts) == 1:
            return parts[0]
        code_of: dict[str, int] = {}
        recoded: list[np.ndarray] = []
        for part in parts:
            mapping = np.array(
                [code_of.setdefault(name, len(code_of)) for name in part.sources],
                dtype=np.int32,
            )
            recoded.append(
                mapping[part.source_codes] if len(part) else part.source_codes
            )
        return cls(
            sample_ids=np.concatenate([part.sample_ids for part in parts]),
            text_tokens=np.concatenate([part.text_tokens for part in parts]),
            image_tokens=np.concatenate([part.image_tokens for part in parts]),
            source_codes=np.concatenate(recoded),
            sources=tuple(code_of),
            metas=np.concatenate([part.metas for part in parts]),
        )

    # -- views ----------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.sample_ids)

    def select(self, indices: np.ndarray) -> "SampleColumns":
        """Rows at ``indices`` (fancy indexing; preserves the given order)."""
        return SampleColumns(
            sample_ids=self.sample_ids[indices],
            text_tokens=self.text_tokens[indices],
            image_tokens=self.image_tokens[indices],
            source_codes=self.source_codes[indices],
            sources=self.sources,
            metas=self.metas[indices],
        )

    def where(self, mask: np.ndarray) -> "SampleColumns":
        """Rows where ``mask`` is true (order preserved)."""
        return self.select(np.flatnonzero(mask))

    def rotate_take(self, offset: int, count: int) -> "SampleColumns":
        """First ``count`` rows of the buffer rotated left by ``offset``.

        Byte-identical to ``(rows[offset:] + rows[:offset])[:count]`` for
        ``count <= len(rows)`` — the rotation the framework's deterministic
        per-step buffer bounding applies.
        """
        if len(self) == 0 or count <= 0:
            return self.select(np.empty(0, dtype=np.intp))
        indices = (np.arange(count, dtype=np.intp) + offset) % len(self)
        return self.select(indices)

    def source_order(self) -> list[int]:
        """Source codes present, ordered by first occurrence."""
        if len(self) == 0:
            return []
        present, first = np.unique(self.source_codes, return_index=True)
        return [int(code) for code in present[np.argsort(first, kind="stable")]]

    def pool_positions(self) -> dict[int, np.ndarray]:
        """Row positions per source code, each ascending."""
        order = np.argsort(self.source_codes, kind="stable")
        sorted_codes = self.source_codes[order]
        pools: dict[int, np.ndarray] = {}
        for code in self.source_order():
            lo = int(np.searchsorted(sorted_codes, code, side="left"))
            hi = int(np.searchsorted(sorted_codes, code, side="right"))
            pools[code] = order[lo:hi]
        return pools

    def to_list(self) -> list[SampleMetadata]:
        return self.metas.tolist()


class ColumnarBufferCache:
    """Planner-side incremental mirror of one Source Loader's read buffer.

    The cache consumes the loader's delta event log — ``("add", metadata)`` /
    ``("del", sample_id)`` in mutation order — and maintains backing arrays
    with an alive mask plus pending-append column lists, so each step costs
    O(delta events) amortised rather than O(buffer).  ``epoch``/``seq`` track
    the loader's log position for the next gather; a loader restart or log
    truncation surfaces as a mismatch there and the Planner resynchronises
    via :meth:`snapshot`.
    """

    def __init__(self, source: str) -> None:
        self.source = source
        #: Loader log position acknowledged by the previous gather.
        self.epoch = -1
        self.seq = -1
        self._ids = np.empty(0, dtype=np.int64)
        self._text = np.empty(0, dtype=np.int64)
        self._image = np.empty(0, dtype=np.int64)
        self._metas = np.empty(0, dtype=object)
        self._alive = np.empty(0, dtype=bool)
        self._pending_ids: list[int] = []
        self._pending_text: list[int] = []
        self._pending_image: list[int] = []
        self._pending_metas: list[SampleMetadata] = []
        self._pending_alive: list[bool] = []
        self._pos: dict[int, int] = {}
        self._live = 0
        self._columns: SampleColumns | None = None

    # -- mutation -------------------------------------------------------------------

    def snapshot(self, samples: list[SampleMetadata]) -> None:
        """Replace the cache contents with a full buffer snapshot (resync)."""
        count = len(samples)
        self._ids = np.fromiter(
            (s.sample_id for s in samples), dtype=np.int64, count=count
        )
        self._text = np.fromiter(
            (s.text_tokens for s in samples), dtype=np.int64, count=count
        )
        self._image = np.fromiter(
            (s.image_tokens for s in samples), dtype=np.int64, count=count
        )
        self._metas = np.empty(count, dtype=object)
        self._metas[:] = samples
        self._alive = np.ones(count, dtype=bool)
        self._pending_ids.clear()
        self._pending_text.clear()
        self._pending_image.clear()
        self._pending_metas.clear()
        self._pending_alive.clear()
        self._pos = {int(sample_id): index for index, sample_id in enumerate(self._ids)}
        self._live = count
        self._columns = None

    def apply(self, events: list[tuple[str, object]]) -> None:
        """Replay loader buffer mutations, in order, onto the cache."""
        if not events:
            return
        base_len = len(self._ids)
        for op, payload in events:
            if op == "add":
                metadata: SampleMetadata = payload  # type: ignore[assignment]
                self._pos[metadata.sample_id] = base_len + len(self._pending_ids)
                self._pending_ids.append(metadata.sample_id)
                self._pending_text.append(metadata.text_tokens)
                self._pending_image.append(metadata.image_tokens)
                self._pending_metas.append(metadata)
                self._pending_alive.append(True)
                self._live += 1
            elif op == "del":
                index = self._pos.pop(int(payload), None)
                if index is None:
                    continue  # defensive: unknown id (should not happen)
                if index >= base_len:
                    self._pending_alive[index - base_len] = False
                else:
                    self._alive[index] = False
                self._live -= 1
            else:  # pragma: no cover - protocol misuse
                raise ValueError(f"unknown buffer delta op {op!r}")
        self._columns = None

    # -- views ----------------------------------------------------------------------

    def __len__(self) -> int:
        return self._live

    def sample_ids(self) -> list[int]:
        """Live sample ids in buffer order (tests / resync verification)."""
        return self.columns().sample_ids.tolist()

    def columns(self) -> SampleColumns:
        """The live rows as :class:`SampleColumns`, in loader buffer order."""
        if self._columns is not None:
            return self._columns
        if self._pending_ids:
            self._ids = np.concatenate(
                [self._ids, np.asarray(self._pending_ids, dtype=np.int64)]
            )
            self._text = np.concatenate(
                [self._text, np.asarray(self._pending_text, dtype=np.int64)]
            )
            self._image = np.concatenate(
                [self._image, np.asarray(self._pending_image, dtype=np.int64)]
            )
            pending_metas = np.empty(len(self._pending_metas), dtype=object)
            pending_metas[:] = self._pending_metas
            self._metas = np.concatenate([self._metas, pending_metas])
            self._alive = np.concatenate(
                [self._alive, np.asarray(self._pending_alive, dtype=bool)]
            )
            self._pending_ids.clear()
            self._pending_text.clear()
            self._pending_image.clear()
            self._pending_metas.clear()
            self._pending_alive.clear()
        ids = self._ids[self._alive]
        text = self._text[self._alive]
        image = self._image[self._alive]
        metas = self._metas[self._alive]
        if (
            len(self._ids) > COMPACT_MIN_ROWS
            and self._live < COMPACT_TOMBSTONE_FRACTION * len(self._ids)
        ):
            # Compact: the tombstoned majority is dropped and row positions
            # re-derived.  Amortised O(1) per deletion — compaction only runs
            # after at least half the backing rows died.
            self._ids, self._text, self._image, self._metas = ids, text, image, metas
            self._alive = np.ones(len(ids), dtype=bool)
            self._pos = {int(sample_id): index for index, sample_id in enumerate(ids)}
        self._columns = SampleColumns(
            sample_ids=ids,
            text_tokens=text,
            image_tokens=image,
            source_codes=np.zeros(len(ids), dtype=np.int32),
            sources=(self.source,),
            metas=metas,
        )
        return self._columns
