"""Columnar (struct-of-arrays) sets of buffered samples: what plans are made of.

The Planner's gather concatenates every Source Loader's buffer reply — the
sample id, text token and image token arrays, in buffer (arrival) order —
into one :class:`SampleColumns` with one run of rows per source, in gather
order.  A :class:`SampleColumns` is the one input and output of planning: a
DGraph selects its rows with a row mask, ``mix`` draws row positions per
source run, a cost function maps the selected rows to per-row load arrays,
``balance`` packs row positions, and a module plan is one selection of rows in
bin order plus the bins' row offsets.

Metadata records enter only through :meth:`SampleColumns.from_samples`
(examples, figures and tests that draw records); no record is built from a
column set.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np


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
    runs:
        ``(code, start, end)`` per source when the rows are grouped into one
        contiguous run per source (a gathered set and what is cut from it by
        source), else ``None``.
    """

    __slots__ = (
        "sample_ids", "text_tokens", "image_tokens", "total_tokens",
        "source_codes", "sources", "runs",
    )

    def __init__(
        self,
        sample_ids: np.ndarray,
        text_tokens: np.ndarray,
        image_tokens: np.ndarray,
        source_codes: np.ndarray,
        sources: tuple[str, ...],
        total_tokens: np.ndarray | None = None,
        runs: list[tuple[int, int, int]] | None = None,
    ) -> None:
        self.sample_ids = sample_ids
        self.text_tokens = text_tokens
        self.image_tokens = image_tokens
        self.total_tokens = text_tokens + image_tokens if total_tokens is None else total_tokens
        self.source_codes = source_codes
        self.sources = sources
        self.runs = runs

    # -- constructors ---------------------------------------------------------------

    @classmethod
    def empty(cls) -> "SampleColumns":
        none = np.empty(0, dtype=np.int64)
        return cls(none, none, none, np.empty(0, dtype=np.int32), (), none, runs=[])

    @classmethod
    def gathered(cls, sources: list[str], replies: list[list[dict]]) -> "SampleColumns":
        """One set over loader buffer replies (``replies[i]`` are source
        ``i``'s, each with ``sample_ids`` / ``text_tokens`` / ``image_tokens``
        arrays), grouped by source in the given order, each source's loaders
        in reply order."""
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
            runs=[(code, end - count, end) for code, (count, end) in enumerate(zip(counts, ends))],
        )

    @classmethod
    def from_samples(cls, samples: list) -> "SampleColumns":
        """Columns of metadata records (:class:`~repro.data.samples.SampleMetadata`)
        of any sources, in the given order."""
        if not samples:
            return cls.empty()
        code_of: dict[str, int] = {}
        count = len(samples)
        codes = np.fromiter(
            (code_of.setdefault(s.source, len(code_of)) for s in samples), dtype=np.int32, count=count
        )
        return cls(
            np.fromiter((s.sample_id for s in samples), dtype=np.int64, count=count),
            np.fromiter((s.text_tokens for s in samples), dtype=np.int64, count=count),
            np.fromiter((s.image_tokens for s in samples), dtype=np.int64, count=count),
            codes,
            tuple(code_of),
            runs=[(0, 0, count)] if len(code_of) == 1 else None,
        )

    # -- views ----------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.sample_ids)

    def __eq__(self, other: object) -> bool:
        """Same ids, token counts and source per row."""
        return (
            isinstance(other, SampleColumns)
            and np.array_equal(self.sample_ids, other.sample_ids)
            and np.array_equal(self.text_tokens, other.text_tokens)
            and np.array_equal(self.image_tokens, other.image_tokens)
            and [self.sources[code] for code in self.source_codes.tolist()]
            == [other.sources[code] for code in other.source_codes.tolist()]
        )

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
