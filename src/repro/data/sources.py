"""Data sources and the multisource catalog.

A :class:`DataSource` describes one dataset (its storage files, modality and
preprocessing cost profile); a :class:`SourceCatalog` aggregates the hundreds
of sources that make up an LFM data mixture and is the unit the AutoScaler
partitions across Source Loader actors.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import accumulate, compress, repeat


from repro.data.samples import MetadataColumns, Modality, SampleMetadata
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

    def __init__(self, sources: list[DataSource] | None = None) -> None:
        self._sources: dict[str, DataSource] = {}
        for source in sources or []:
            self.add(source)

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
#: in :class:`SampleMetadata` field order: the type a value is read as, and
#: what a file whose schema lacks the column yields.
_COLUMNS = {
    "modality": (str, "text"),
    "text_tokens": (int, 0),
    "image_tokens": (int, 0),
    "video_frames": (int, 0),
    "audio_seconds": (float, 0.0),
    "raw_bytes": (int, 0),
    "decoded_bytes": (int, 0),
}


class SourceCursor:
    """Sequential (wrapping) read cursor over one source's samples.

    The cursor reads lightweight metadata records out of the row groups of
    the source's columnar files (each row decoded once, whichever cursor gets
    to it first), or a Source Loader's costed buffer rows
    (:meth:`take_costed`, each row costed once per cost key); payload
    materialisation is left to the Source Loader / transformation pipeline.
    Its state is the row-group index plus one position: shard row ``k`` is
    global row ``shard_index + k * shard_count``, located by bisecting the
    row groups' prefix offsets, so the cursor itself holds nothing per row.
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

    def _read(self, group: RowGroup, picked: slice) -> MetadataColumns:
        """``group``'s rows at ``picked`` as a chunk.

        A row is decoded into its record the first time any cursor reads it;
        the record stays on the row group (:attr:`RowGroup.decoded`), so every
        later read of the row — by this cursor or another over the same file —
        is a list slice that returns the same record.
        """
        name = self.source.name
        decoded = group.decoded.get(name)
        if decoded is None:
            decoded = group.decoded.setdefault(name, [None] * group.row_count)
        rows = decoded[picked]
        if all(rows):
            return MetadataColumns.from_records(rows)

        def read(column: str, kind: type, default: object) -> list:
            if column not in group.columns:
                return [default] * len(rows)
            return list(map(kind, group.columns[column][picked]))

        ids = list(map(int, group.column("sample_id")[picked]))
        columns = {column: read(column, *spec) for column, spec in _COLUMNS.items()}
        members = {value: Modality(value) for value in set(columns["modality"])}
        columns["modality"] = [members[value] for value in columns["modality"]]
        # The stored values are converted for the whole slice (they are the
        # chunk's columns); a record is built only for the rows without one.
        missing = [row is None for row in rows]
        fresh = map(
            SampleMetadata, compress(ids, missing), repeat(name),
            *(compress(column, missing) for column in columns.values()),
        )
        rows = decoded[picked] = [row or next(fresh) for row in rows]
        return MetadataColumns(rows, ids, **columns)

    def _read_costed(self, group: RowGroup, picked: slice, key: tuple, cost) -> list:
        """``group``'s rows at ``picked`` as ``(metadata, latency_s, bytes)`` rows.

        As with decoded records, a row is costed the first time any cursor
        reads it under ``key`` and its costs stay on the row group
        (``group.decoded[key]``, a latency list and a bytes list), so every
        later read of it is list slices.  A row's record and bytes are written
        before its latency, and a reader looks at the latency first: a reader
        on another thread never sees a latency without its bytes.
        """
        costs = group.decoded.get(key)
        if costs is None:
            costs = group.decoded.setdefault(
                key, ([None] * group.row_count, [None] * group.row_count)
            )
        latencies, sizes = costs
        latency = latencies[picked]
        if None not in latency:
            records = group.decoded[self.source.name][picked]
            return list(zip(records, latency, sizes[picked]))
        chunk = self._read(group, picked)
        records = chunk.records
        missing = [index for index, value in enumerate(latency) if value is None]
        if len(missing) == len(records):
            latency, size = cost(chunk)
        else:
            fresh = cost(MetadataColumns.from_records([records[index] for index in missing]))
            size = sizes[picked]
            for index, value, nbytes in zip(missing, *fresh):
                latency[index] = value
                size[index] = nbytes
        sizes[picked] = size
        latencies[picked] = latency
        return list(zip(records, latency, size))

    def _check_shard(self) -> None:
        if not self._shard_rows:
            raise ConfigurationError(f"source {self.source.name!r} shard is empty")

    def take_columns(self, count: int) -> MetadataColumns:
        """Read the next ``count`` samples as one chunk (wrapping at the end of shard)."""
        self._check_shard()
        parts = [self._read(group, picked) for group, picked in self._segments(count)]
        self._position += count
        return MetadataColumns.join(parts)

    def take_costed(
        self,
        count: int,
        key: tuple,
        cost: Callable[[MetadataColumns], tuple[list[float], list[int]]],
    ) -> list[tuple[SampleMetadata, float, int]]:
        """``(metadata, latency_s, bytes)`` for the next ``count`` samples
        (wrapping at the end of shard): a Source Loader's buffer rows.

        ``cost(chunk)`` gives a chunk's latencies and bytes, one per record;
        ``key`` must cover everything ``cost`` reads besides the chunk.  Only
        rows no cursor has read under ``key`` yet are costed, and only the
        ``count`` rows returned: nothing is costed ahead.
        """
        self._check_shard()
        parts = [
            self._read_costed(group, picked, key, cost)
            for group, picked in self._segments(count)
        ]
        self._position += count
        return parts[0] if len(parts) == 1 else [row for part in parts for row in part]

    def next_metadata(self) -> SampleMetadata:
        """Return metadata for the next sample (wrapping at the end of shard)."""
        return self.take_columns(1).records[0]

    def take(self, count: int) -> list[SampleMetadata]:
        return self.take_columns(count).records

    def peek_ids(self, count: int) -> list[int]:
        """Sample ids of the next ``count`` rows, without reading them."""
        self._check_shard()
        return [
            int(value)
            for group, picked in self._segments(count)
            for value in group.column("sample_id")[picked]
        ]

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
