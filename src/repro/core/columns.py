"""Columnar (struct-of-arrays) sets of buffered samples: what plans are made of.

The Planner's gather concatenates every Source Loader's buffer reply — the
sample id, text token and image token arrays, in buffer (arrival) order —
into one :class:`SampleColumns` with one run of rows per source, in gather
order.  A planning cycle is numpy index arithmetic over those arrays: ``mix``
draws row positions per source run, ``cost`` and ``balance`` read the token
arrays, and a module plan is one selection of rows in bin order plus the
bins' row offsets.
No :class:`~repro.data.samples.SampleMetadata` is built on that path.

A record is built only when a caller asks for one (:meth:`SampleColumns.to_list`:
examples, figures, tests).  Each source of
a set has a *reader* that builds records from sample ids: the loader cursor's
record lookup for a gathered set, an index over the given records for a set
built from records (:meth:`SampleColumns.from_samples`).
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial
from itertools import accumulate

import numpy as np

from repro.data.samples import SampleMetadata

#: Builds a source's records from sample ids, in the given order.
Reader = Callable[[list[int]], list[SampleMetadata]]


def _read_index(index: dict[int, SampleMetadata], sample_ids: list[int]) -> list[SampleMetadata]:
    return [index[sample_id] for sample_id in sample_ids]


class SampleColumns:
    """Immutable struct-of-arrays view over a sequence of buffered samples.

    Attributes
    ----------
    sample_ids / text_tokens / image_tokens / total_tokens:
        ``int64`` arrays, one entry per sample.
    source_codes:
        ``int32`` array of indices into :attr:`sources`.
    sources:
        Tuple of source names referenced by :attr:`source_codes`.
    readers:
        Per source, the :data:`Reader` that builds its records on demand.
    runs:
        ``(code, start, end)`` per source when the rows are grouped into one
        contiguous run per source (a gathered set and what is cut from it by
        source), else ``None``.
    """

    __slots__ = (
        "sample_ids", "text_tokens", "image_tokens", "total_tokens",
        "source_codes", "sources", "readers", "runs",
    )

    def __init__(
        self,
        sample_ids: np.ndarray,
        text_tokens: np.ndarray,
        image_tokens: np.ndarray,
        source_codes: np.ndarray,
        sources: tuple[str, ...],
        readers: tuple[Reader, ...],
        total_tokens: np.ndarray | None = None,
        runs: list[tuple[int, int, int]] | None = None,
    ) -> None:
        self.sample_ids = sample_ids
        self.text_tokens = text_tokens
        self.image_tokens = image_tokens
        self.total_tokens = text_tokens + image_tokens if total_tokens is None else total_tokens
        self.source_codes = source_codes
        self.sources = sources
        self.readers = readers
        self.runs = runs

    # -- constructors ---------------------------------------------------------------

    @classmethod
    def empty(cls) -> "SampleColumns":
        none = np.empty(0, dtype=np.int64)
        return cls(none, none, none, np.empty(0, dtype=np.int32), (), (), none, runs=[])

    @classmethod
    def gathered(cls, sources: list[str], replies: list[list[dict]]) -> "SampleColumns":
        """One set over loader buffer replies (``replies[i]`` are source
        ``i``'s, each with ``sample_ids`` / ``text_tokens`` / ``image_tokens``
        arrays and a ``records`` reader), grouped by source in the given
        order, each source's loaders in reply order."""
        counts = [sum(len(reply["sample_ids"]) for reply in group) for group in replies]
        flat = [reply for group in replies for reply in group]
        if not flat:
            return cls.empty()
        ends = list(accumulate(counts))
        return cls(
            *(np.concatenate([reply[name] for reply in flat])
              for name in ("sample_ids", "text_tokens", "image_tokens")),
            np.repeat(np.arange(len(sources), dtype=np.int32), counts),
            tuple(sources),
            tuple(group[0]["records"] for group in replies),
            runs=[(code, end - count, end) for code, (count, end) in enumerate(zip(counts, ends))],
        )

    @classmethod
    def from_samples(cls, samples: list[SampleMetadata]) -> "SampleColumns":
        """Build columns from metadata records of any sources, in the given order."""
        if not samples:
            return cls.empty()
        code_of: dict[str, int] = {}
        indexes: list[dict[int, SampleMetadata]] = []
        codes = np.empty(len(samples), dtype=np.int32)
        for position, sample in enumerate(samples):
            code = code_of.setdefault(sample.source, len(code_of))
            if code == len(indexes):
                indexes.append({})
            indexes[code][sample.sample_id] = sample
            codes[position] = code
        count = len(samples)
        return cls(
            np.fromiter((s.sample_id for s in samples), dtype=np.int64, count=count),
            np.fromiter((s.text_tokens for s in samples), dtype=np.int64, count=count),
            np.fromiter((s.image_tokens for s in samples), dtype=np.int64, count=count),
            codes,
            tuple(code_of),
            tuple(partial(_read_index, index) for index in indexes),
            runs=[(0, 0, count)] if len(indexes) == 1 else None,
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
        """Concatenate column sets.

        Parts over distinct sources concatenate their arrays (grouped parts
        into a grouped set); parts that share a source are rebuilt from their
        records, merging the shared source into one table.
        """
        if not parts:
            return cls.empty()
        if len(parts) == 1:
            return parts[0]
        sources = [name for part in parts for name in part.sources]
        if len(set(sources)) < len(sources):
            return cls.from_samples([record for part in parts for record in part.to_list()])
        runs: list[tuple[int, int, int]] | None = []
        codes: list[np.ndarray] = []
        first_code = offset = 0
        for part in parts:
            codes.append(part.source_codes + first_code)
            if runs is not None and part.runs is not None:
                runs += [(first_code + code, offset + start, offset + end)
                         for code, start, end in part.runs]
            else:
                runs = None
            first_code += len(part.sources)
            offset += len(part)
        return cls(
            sample_ids=np.concatenate([part.sample_ids for part in parts]),
            text_tokens=np.concatenate([part.text_tokens for part in parts]),
            image_tokens=np.concatenate([part.image_tokens for part in parts]),
            source_codes=np.concatenate(codes).astype(np.int32),
            sources=tuple(sources),
            readers=tuple(reader for part in parts for reader in part.readers),
            runs=runs,
        )

    # -- views ----------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.sample_ids)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SampleColumns) and self.to_list() == other.to_list()

    def select(
        self, indices: np.ndarray, runs: list[tuple[int, int, int]] | None = None
    ) -> "SampleColumns":
        """Rows at ``indices`` (an index array, or a slice for views), in that
        order; ``runs`` states the result's source runs when the caller knows them."""
        return SampleColumns(
            self.sample_ids[indices],
            self.text_tokens[indices],
            self.image_tokens[indices],
            self.source_codes[indices],
            self.sources,
            self.readers,
            total_tokens=self.total_tokens[indices],
            runs=runs,
        )

    def where(self, mask: np.ndarray) -> "SampleColumns":
        """Rows where ``mask`` is true (order preserved; source runs kept)."""
        runs = None
        if self.runs is not None:
            kept = np.concatenate(([0], np.cumsum(mask))).tolist()
            runs = [(code, kept[start], kept[end]) for code, start, end in self.runs]
        return self.select(np.flatnonzero(mask), runs=runs)

    def source_order(self) -> list[int]:
        """Source codes present, ordered by first occurrence."""
        if self.runs is not None:
            return [code for code, start, end in self.runs if end > start]
        if len(self) == 0:
            return []
        present, first = np.unique(self.source_codes, return_index=True)
        return [int(code) for code in present[np.argsort(first, kind="stable")]]

    def pool_positions(self) -> dict[int, np.ndarray]:
        """Row positions per source code, each ascending."""
        if self.runs is not None:
            return {code: np.arange(start, end) for code, start, end in self.runs if end > start}
        order = np.argsort(self.source_codes, kind="stable")
        sorted_codes = self.source_codes[order]
        pools: dict[int, np.ndarray] = {}
        for code in self.source_order():
            lo = int(np.searchsorted(sorted_codes, code, side="left"))
            hi = int(np.searchsorted(sorted_codes, code, side="right"))
            pools[code] = order[lo:hi]
        return pools

    def source_runs(self) -> dict[str, tuple[int, int, int]]:
        """``source -> (code, start, end)`` of a grouped set (:attr:`runs`)."""
        if self.runs is None:
            raise ValueError("the rows are not grouped by source")
        return {self.sources[code]: (code, start, end) for code, start, end in self.runs}

    def to_list(self) -> list[SampleMetadata]:
        """The rows' :class:`SampleMetadata` records, built by the sources' readers."""
        sample_ids = self.sample_ids.tolist()
        by_code: dict[int, list[int]] = {}
        for position, code in enumerate(self.source_codes.tolist()):
            by_code.setdefault(code, []).append(position)
        records: list[SampleMetadata | None] = [None] * len(sample_ids)
        for code, positions in by_code.items():
            built = self.readers[code]([sample_ids[position] for position in positions])
            for position, record in zip(positions, built):
                records[position] = record
        return records
