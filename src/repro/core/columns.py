"""Columnar (struct-of-arrays) views over buffered sample metadata.

Buffered :class:`~repro.data.samples.SampleMetadata` reaches the Planner and
the DGraph as :class:`SampleColumns`, so a planning cycle costs numpy index
arithmetic over the rows it selects rather than per-sample Python object
churn.

:class:`SampleColumns` is an immutable struct-of-arrays view over a set of
buffered samples: numpy arrays for sample id, token counts and source codes,
plus an object array of the metadata records themselves so plan finalization
emits the very :class:`SampleMetadata` objects the loaders buffered.  A set
gathered from the loaders (:meth:`SampleColumns.of_source`) holds the
loaders' own buffer rows, ``(metadata, ...)`` tuples in each loader's buffer
order (the order plan determinism rests on), and builds its arrays on first
read: length, per-source grouping, rotation, selection and the concatenation
of distinct sources work on the row lists, so a plan reads a record, and
builds arrays, only for the rows it selects.
"""

from __future__ import annotations

from operator import itemgetter

import numpy as np

from repro.data.samples import SampleMetadata

#: The array slots a lazy set (:meth:`SampleColumns.of_source`) fills on first read.
_ARRAYS = ("sample_ids", "text_tokens", "image_tokens", "total_tokens", "source_codes", "metas")

#: The record of a loader buffer row, ``(metadata, ...)``.
_record_of = itemgetter(0)


def _record_arrays(
    records: list[SampleMetadata],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Id, text token and image token arrays plus the object array of ``records``."""
    count = len(records)
    metas = np.empty(count, dtype=object)
    metas[:] = records
    return (
        np.fromiter((s.sample_id for s in records), dtype=np.int64, count=count),
        np.fromiter((s.text_tokens for s in records), dtype=np.int64, count=count),
        np.fromiter((s.image_tokens for s in records), dtype=np.int64, count=count),
        metas,
    )


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

    A lazy set (:meth:`of_source`, and :meth:`concat` of lazy sets over
    distinct sources) keeps its buffer rows as one list with one run per
    source, and reads a row's record only to build these arrays, for the
    rows a view keeps, or to list the set (:meth:`to_list`).
    """

    __slots__ = (*_ARRAYS, "sources", "_rows", "_ends")

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
        #: Lazy sets only: the buffer rows, and the end of each source's run.
        self._rows: list[tuple] | None = None
        self._ends: list[int] | None = None

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
    def of_source(cls, source: str, rows: list[tuple]) -> "SampleColumns":
        """One source's buffer rows, in buffer order; arrays built on first read.

        ``rows`` are the loader's own buffer rows (``row[0]`` the record) and
        are held as given, not copied: the caller hands over the list.
        """
        return cls._lazy((source,), rows, [len(rows)])

    @classmethod
    def _lazy(
        cls, sources: tuple[str, ...], rows: list[tuple], ends: list[int]
    ) -> "SampleColumns":
        columns = cls.__new__(cls)
        columns.sources = sources
        columns._rows = rows
        columns._ends = ends
        return columns

    @classmethod
    def from_samples(cls, samples: list[SampleMetadata]) -> "SampleColumns":
        """Build columns from metadata records of any sources, in the given order."""
        if not samples:
            return cls.empty()
        codes = np.empty(len(samples), dtype=np.int32)
        code_of: dict[str, int] = {}
        for index, sample in enumerate(samples):
            code = code_of.setdefault(sample.source, len(code_of))
            codes[index] = code
        sample_ids, text_tokens, image_tokens, metas = _record_arrays(samples)
        return cls(sample_ids, text_tokens, image_tokens, codes, tuple(code_of), metas)

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
        """Concatenate column sets, merging (and deduplicating) source tables.

        Lazy sets over distinct sources concatenate lazily: one record list,
        one run per source.
        """
        if not parts:
            return cls.empty()
        if len(parts) == 1:
            return parts[0]
        sources = tuple(name for part in parts for name in part.sources)
        if len(set(sources)) == len(sources) and all(part._rows is not None for part in parts):
            rows: list[tuple] = []
            ends: list[int] = []
            for part in parts:
                ends.extend(len(rows) + end for end in part._ends)
                rows.extend(part._rows)
            return cls._lazy(sources, rows, ends)
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

    # -- lazy sets ------------------------------------------------------------------

    def __getattr__(self, name: str):
        # Reached only for an unset slot: a lazy set's arrays, built here
        # once over all its rows.
        if name not in _ARRAYS or self._rows is None:
            raise AttributeError(name)
        built = self._build(np.arange(len(self._rows)))
        for slot in _ARRAYS:
            setattr(self, slot, getattr(built, slot))
        return getattr(self, name)

    def _build(self, positions: np.ndarray) -> "SampleColumns":
        """Columns over a lazy set's rows at ``positions`` (one array build)."""
        records = list(map(_record_of, map(self._rows.__getitem__, positions.tolist())))
        sample_ids, text_tokens, image_tokens, metas = _record_arrays(records)
        codes = np.searchsorted(self._ends, positions, side="right").astype(np.int32)
        return SampleColumns(sample_ids, text_tokens, image_tokens, codes, self.sources, metas)

    def _runs(self):
        """``(start, end)`` of each source's rows in a lazy set, in code order."""
        return zip([0, *self._ends], self._ends)

    # -- views ----------------------------------------------------------------------

    def __len__(self) -> int:
        if self._rows is not None:
            return len(self._rows)
        return len(self.sample_ids)

    def select(self, indices: np.ndarray) -> "SampleColumns":
        """Rows at ``indices`` (fancy indexing; preserves the given order)."""
        if self._rows is not None:
            return self._build(np.asarray(indices, dtype=np.intp))
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
        per-step buffer bounding applies.  A lazy one-source set rotates its
        row list and stays lazy.
        """
        rows = self._rows
        if rows is not None and len(self.sources) == 1 and 0 <= count <= len(rows):
            offset %= max(1, len(rows))
            taken = rows[offset : offset + count]
            taken += rows[: count - len(taken)]
            return SampleColumns.of_source(self.sources[0], taken)
        if len(self) == 0 or count <= 0:
            return self.select(np.empty(0, dtype=np.intp))
        indices = (np.arange(count, dtype=np.intp) + offset) % len(self)
        return self.select(indices)

    def source_order(self) -> list[int]:
        """Source codes present, ordered by first occurrence."""
        if self._rows is not None:
            return [code for code, (start, end) in enumerate(self._runs()) if end > start]
        if len(self) == 0:
            return []
        present, first = np.unique(self.source_codes, return_index=True)
        return [int(code) for code in present[np.argsort(first, kind="stable")]]

    def pool_positions(self) -> dict[int, np.ndarray]:
        """Row positions per source code, each ascending."""
        if self._rows is not None:
            return {
                code: np.arange(start, end)
                for code, (start, end) in enumerate(self._runs())
                if end > start
            }
        order = np.argsort(self.source_codes, kind="stable")
        sorted_codes = self.source_codes[order]
        pools: dict[int, np.ndarray] = {}
        for code in self.source_order():
            lo = int(np.searchsorted(sorted_codes, code, side="left"))
            hi = int(np.searchsorted(sorted_codes, code, side="right"))
            pools[code] = order[lo:hi]
        return pools

    def to_list(self) -> list[SampleMetadata]:
        if self._rows is not None:
            return list(map(_record_of, self._rows))
        return self.metas.tolist()

