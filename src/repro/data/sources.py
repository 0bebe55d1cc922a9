"""Data sources and the multisource catalog.

A :class:`DataSource` describes one dataset (its storage files, modality and
preprocessing cost profile); a :class:`SourceCatalog` aggregates the hundreds
of sources that make up an LFM data mixture and is the unit the AutoScaler
partitions across Source Loader actors.

A :class:`SourceCursor` reads a source's rows as the typed column arrays of
its files' row groups.  A Source Loader takes its buffer rows as array
slices — sample id, token counts and the transform latency and staged bytes
each row group computes once per cost key — so no row becomes an object on
the loader's path; a :class:`~repro.data.samples.SampleMetadata` record is
built only when a caller asks for one.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import accumulate, repeat

import numpy as np

from repro.data.samples import Modality, SampleMetadata
from repro.errors import ConfigurationError
from repro.storage.columnar import RowGroup
from repro.storage.filesystem import SimulatedFileSystem


@dataclass(frozen=True)
class SourcePreprocessingProfile:
    """Relative preprocessing cost of one source.

    ``cost_per_token`` is expressed relative to text tokenization (== 1.0).
    The paper states image decoding is roughly two orders of magnitude more
    expensive than tokenization per output token and audio is ~4x image.
    ``fixed_cost_s`` models per-sample constant overhead (e.g. container
    parsing, keyframe seeking).
    """

    cost_per_token: float = 1.0
    fixed_cost_s: float = 0.0005
    memory_amplification: float = 1.0


@dataclass(frozen=True)
class DataSource:
    """One data source participating in the mixture."""

    name: str
    modality: Modality
    paths: tuple[str, ...]
    num_samples: int
    dataset_group: str = "custom"
    profile: SourcePreprocessingProfile = field(default_factory=SourcePreprocessingProfile)
    avg_text_tokens: float = 64.0
    avg_image_tokens: float = 0.0
    avg_raw_bytes: float = 4096.0

    def __post_init__(self) -> None:
        if self.num_samples <= 0:
            raise ConfigurationError(f"source {self.name!r} must have at least one sample")
        if not self.paths:
            raise ConfigurationError(f"source {self.name!r} has no storage paths")

    @property
    def avg_tokens(self) -> float:
        return self.avg_text_tokens + self.avg_image_tokens

    def expected_transform_latency(self) -> float:
        """Expected per-sample transformation latency in seconds.

        Uses the per-token relative cost with tokenization calibrated at
        ~2 microseconds per text token, matching the cost tables in
        :mod:`repro.transforms.sample`.
        """
        per_token_s = 2.0e-6 * self.profile.cost_per_token
        return self.profile.fixed_cost_s + per_token_s * self.avg_tokens


class SourceCatalog:
    """An ordered collection of :class:`DataSource` objects."""

    def __init__(self) -> None:
        self._sources: dict[str, DataSource] = {}

    def add(self, source: DataSource) -> None:
        if source.name in self._sources:
            raise ConfigurationError(f"duplicate source name {source.name!r}")
        self._sources[source.name] = source

    def get(self, name: str) -> DataSource:
        try:
            return self._sources[name]
        except KeyError:
            raise ConfigurationError(f"unknown source {name!r}") from None

    def names(self) -> list[str]:
        return list(self._sources.keys())

    def sources(self) -> list[DataSource]:
        return list(self._sources.values())

    def __len__(self) -> int:
        return len(self._sources)

    def __iter__(self):
        return iter(self._sources.values())

    def __contains__(self, name: str) -> bool:
        return name in self._sources

    def total_samples(self) -> int:
        return sum(source.num_samples for source in self)


#: Optional storage columns a cursor reads beside the required ``sample_id``,
#: in :class:`SampleMetadata` field order, with what a file whose schema lacks
#: the column yields for each row.
_COLUMNS = {
    "modality": "text",
    "text_tokens": 0,
    "image_tokens": 0,
    "video_frames": 0,
    "audio_seconds": 0.0,
    "raw_bytes": 0,
    "decoded_bytes": 0,
}


def _column(group: RowGroup, name: str) -> np.ndarray:
    """One of ``group``'s metadata columns, or its default when the file lacks it."""
    values = group.columns.get(name)
    return np.full(group.row_count, _COLUMNS[name]) if values is None else values


def _metadata(group: RowGroup) -> dict[str, np.ndarray]:
    """Every metadata column of ``group``, named as the :class:`SampleMetadata` fields."""
    return {name: _column(group, name) for name in _COLUMNS}


#: A source's costed buffer rows, as a Source Loader takes them: sample id,
#: text tokens, image tokens (``int64``), transform latency (``float64``)
#: and staged bytes (``int64``), one array each.
CostedRows = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]
NO_ROWS: CostedRows = tuple(
    np.empty(0, dtype=dtype) for dtype in (np.int64, np.int64, np.int64, np.float64, np.int64)
)

#: A Source Loader's row costing: a group's metadata columns -> per row, the
#: transform latency and the staged bytes.
CostFn = Callable[[dict[str, np.ndarray]], tuple[np.ndarray, np.ndarray]]


class SourceCursor:
    """Sequential (wrapping) read cursor over one source's samples.

    The cursor reads the column arrays of the row groups of the source's
    columnar files.  A Source Loader takes its buffer rows as arrays
    (:meth:`take_costed`); a :class:`SampleMetadata` record is built only when
    asked for (:meth:`next_metadata`, :meth:`records`).  The cursor's state is
    the row-group index plus one position: shard row ``k`` is global row
    ``shard_index + k * shard_count``, located by bisecting the row groups'
    prefix offsets, so the cursor itself holds nothing per row.
    """

    def __init__(
        self,
        source: DataSource,
        filesystem: SimulatedFileSystem,
        start_fraction: float = 0.0,
        shard_index: int = 0,
        shard_count: int = 1,
    ) -> None:
        if shard_count < 1 or not (0 <= shard_index < shard_count):
            raise ConfigurationError(
                f"invalid shard ({shard_index}/{shard_count}) for source {source.name!r}"
            )
        self.source = source
        self._groups = [
            group for path in source.paths for group in filesystem.read(path).row_groups
        ]
        #: Global row at which each row group ends (prefix offsets over all files).
        self._group_ends = list(accumulate(group.row_count for group in self._groups))
        total_rows = self._group_ends[-1] if self._group_ends else 0
        self._shard_index = shard_index
        self._shard_count = shard_count
        self._shard_rows = len(range(shard_index, total_rows, shard_count))
        #: Shard row the cursor starts from (``start_fraction`` of the way in).
        self._rotation = int(start_fraction * self._shard_rows) % max(1, self._shard_rows)
        self._position = 0

    def _segments(self, count: int):
        """Locate the next ``count`` shard rows: ``(row group, slice of its rows)``."""
        stride = self._shard_count
        shard_row = (self._position + self._rotation) % self._shard_rows
        while count > 0:
            run = min(count, self._shard_rows - shard_row)
            row = self._shard_index + shard_row * stride
            stop = row + run * stride
            group_index = bisect_right(self._group_ends, row)
            while row < stop:
                group_end = self._group_ends[group_index]
                group = self._groups[group_index]
                group_start = group_end - group.row_count
                rows = range(row, min(stop, group_end), stride)
                if rows:
                    yield group, slice(row - group_start, rows.stop - group_start, stride)
                row += len(rows) * stride
                group_index += 1
            count -= run
            shard_row = 0  # the shard wrapped

    def _check_shard(self) -> None:
        if not self._shard_rows:
            raise ConfigurationError(f"source {self.source.name!r} shard is empty")

    def take_costed(self, count: int, key: tuple, cost: CostFn) -> CostedRows:
        """The next ``count`` rows (wrapping at the end of shard) as a Source
        Loader's costed buffer rows.

        ``cost`` gives a row group's latencies and bytes from its metadata
        columns; ``key`` must cover everything ``cost`` reads besides them.  A
        group is costed whole, once per key per process, the first time any
        cursor takes a row of it under that key; the arrays returned are
        slices of the group's shared arrays, not to be written to.
        """
        self._check_shard()
        parts = [
            self._costed(group, picked, key, cost) for group, picked in self._segments(count)
        ]
        self._position += count
        return self._joined(parts)

    def costed_rows(self, sample_ids: list[int], key: tuple, cost: CostFn) -> CostedRows:
        """The costed rows of ``sample_ids``, in that order (a restored buffer):
        read as :meth:`take_costed` reads them, without moving the cursor."""
        hits, order = self._find(sample_ids)
        rows = self._joined([self._costed(group, offsets, key, cost) for group, offsets in hits])
        return tuple(column[order] for column in rows)

    def _costed(self, group: RowGroup, picked, key: tuple, cost: CostFn) -> CostedRows:
        costs = group.costs.get(key)
        if costs is None:
            # Pure in the group's rows: a racing cursor on another thread
            # computes the same arrays, and the first stored wins.
            costs = group.costs.setdefault(key, cost(_metadata(group)))
        return (
            group.column("sample_id")[picked],
            _column(group, "text_tokens")[picked],
            _column(group, "image_tokens")[picked],
            costs[0][picked],
            costs[1][picked],
        )

    @staticmethod
    def _joined(parts: list[CostedRows]) -> CostedRows:
        if len(parts) == 1:
            return parts[0]
        return tuple(map(np.concatenate, zip(*parts))) if parts else NO_ROWS

    def _find(self, sample_ids: list[int]) -> tuple[list[tuple[RowGroup, np.ndarray]], np.ndarray]:
        """Where ``sample_ids`` lie: per group holding any, the group and those
        rows' offsets, and where each wanted id lands among the rows listed
        group by group (an id stored twice resolves to its first row)."""
        wanted = np.asarray(sample_ids, dtype=np.int64)
        if not len(wanted):
            return [], np.empty(0, dtype=np.intp)
        ids = np.concatenate([group.column("sample_id") for group in self._groups])
        order = np.argsort(ids, kind="stable")
        rows = order[np.minimum(np.searchsorted(ids[order], wanted), len(ids) - 1)]
        missing = wanted[ids[rows] != wanted]
        if len(missing):
            raise ConfigurationError(f"source {self.source.name!r} has no sample {missing[0]}")
        listed = np.argsort(rows, kind="stable")
        rows = rows[listed]
        numbers = np.searchsorted(self._group_ends, rows, side="right")
        hits = []
        for number in dict.fromkeys(numbers.tolist()):
            group = self._groups[number]
            start = self._group_ends[number] - group.row_count
            hits.append((group, rows[numbers == number] - start))
        positions = np.empty_like(listed)
        positions[listed] = np.arange(len(listed))
        return hits, positions

    def _records(self, group: RowGroup, picked) -> list[SampleMetadata]:
        """Records of ``group``'s rows at ``picked`` (a slice or offsets)."""
        columns = _metadata(group)
        modality = [Modality(value) for value in columns.pop("modality")[picked].tolist()]
        return list(
            map(
                SampleMetadata,
                group.column("sample_id")[picked].tolist(),
                repeat(self.source.name),
                modality,
                *(values[picked].tolist() for values in columns.values()),
            )
        )

    def records(self, sample_ids: list[int]) -> list[SampleMetadata]:
        """Records of this source's rows with ``sample_ids``, in that order.

        Built on demand (examples, figures, tests, a plan's records): the
        loader and planning paths carry ids and token arrays instead.
        """
        hits, order = self._find(sample_ids)
        records = [record for group, offsets in hits for record in self._records(group, offsets)]
        return [records[rank] for rank in order.tolist()]

    def next_metadata(self) -> SampleMetadata:
        """Return metadata for the next sample (wrapping at the end of shard)."""
        self._check_shard()
        [(group, picked)] = self._segments(1)
        self._position += 1
        return self._records(group, picked)[0]

    def rewind(self, count: int) -> None:
        """Step back over the last ``count`` rows read (they are read again next)."""
        self._position -= count

    @property
    def position(self) -> int:
        return self._position

    def state_dict(self) -> dict[str, int]:
        """Checkpointable cursor state (used by differential checkpointing)."""
        return {
            "position": self._position,
            "shard_index": self._shard_index,
            "shard_count": self._shard_count,
        }

    def load_state_dict(self, state: dict[str, int]) -> None:
        if state.get("shard_index") != self._shard_index or state.get("shard_count") != self._shard_count:
            raise ConfigurationError("cursor state does not match this shard configuration")
        self._position = int(state["position"])
