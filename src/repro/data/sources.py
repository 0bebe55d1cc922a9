"""Data sources and the multisource catalog.

A :class:`DataSource` describes one dataset (its storage files, modality and
preprocessing cost profile); a :class:`SourceCatalog` aggregates the hundreds
of sources that make up an LFM data mixture and is the unit the AutoScaler
partitions across Source Loader actors.

A :class:`SourceCursor` reads a source's rows as global row numbers into
its files' typed column arrays.  A Source Loader buffers those row numbers
and indexes the source's columns — sample id, token counts and the transform
latency and staged bytes each file computes once per cost key — so no row is
copied or becomes an object on the loader's path; a
:class:`~repro.data.samples.SampleMetadata` record is built only when a
caller asks for one.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.data.samples import Modality, SampleMetadata
from repro.errors import ConfigurationError
from repro.storage.columnar import ColumnarFile
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


def _column(file: ColumnarFile, name: str) -> np.ndarray:
    """Column ``name`` of ``file``; an optional column the file lacks reads as its default."""
    if name in _COLUMNS and name not in file.columns:
        return np.full(file.total_rows, _COLUMNS[name])
    return file.column(name)


def _metadata(file: ColumnarFile) -> dict[str, np.ndarray]:
    """Every metadata column of ``file``, named as the :class:`SampleMetadata` fields."""
    return {name: _column(file, name) for name in _COLUMNS}


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


#: A Source Loader's row costing: a file's metadata columns -> per row, the
#: transform latency (``float64``) and the staged bytes (``int64``).
CostFn = Callable[[dict[str, np.ndarray]], tuple[np.ndarray, np.ndarray]]


class SourceCursor:
    """Sequential (wrapping) read cursor over one source's samples.

    A source's rows are the rows of its files in order; global row ``r`` is
    row ``r`` of the source's columns (:meth:`column`, :meth:`costs`), which
    for a one-file source are the file's own arrays.  The cursor hands out
    rows as global row numbers (:meth:`take`): a Source Loader buffers those
    and indexes the columns, so no row is copied or becomes an object on its
    path; a :class:`SampleMetadata` record is built only when asked for
    (:meth:`next_metadata`).  The cursor's state is one position: shard row
    ``k`` is global row ``shard_index + k * shard_count``.
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
        self._files: list[ColumnarFile] = [filesystem.read(path) for path in source.paths]
        #: Rows over all of the source's files.
        self.total_rows = sum(file.total_rows for file in self._files)
        self._shard_index = shard_index
        self._shard_count = shard_count
        self._shard_rows = len(range(shard_index, self.total_rows, shard_count))
        #: Shard row the cursor starts from (``start_fraction`` of the way in).
        self._rotation = int(start_fraction * self._shard_rows) % max(1, self._shard_rows)
        self._position = 0
        #: Source-wide metadata columns read so far, by name.
        self._columns: dict[str, np.ndarray] = {}

    def take(self, count: int) -> np.ndarray:
        """The next ``count`` shard rows (wrapping at the end of shard), as global rows."""
        if not self._shard_rows:
            raise ConfigurationError(f"source {self.source.name!r} shard is empty")
        first = (self._position + self._rotation) % self._shard_rows
        self._position += count
        stride, offset = self._shard_count, self._shard_index
        if first + count <= self._shard_rows:  # no wrap: one strided run
            return np.arange(first * stride + offset, (first + count) * stride + offset, stride)
        return np.arange(first, first + count) % self._shard_rows * stride + offset

    def column(self, name: str) -> np.ndarray:
        """Metadata column ``name`` (or ``sample_id``) of every row, by global row.

        For a one-file source this is the file's own read-only array; a source
        over several files concatenates theirs, once per cursor.
        """
        values = self._columns.get(name)
        if values is None:
            values = self._columns[name] = _joined([_column(file, name) for file in self._files])
        return values

    def costs(self, key: tuple, cost: CostFn) -> tuple[np.ndarray, np.ndarray]:
        """Every row's transform latency and staged bytes under ``key``, by global row.

        ``cost`` gives a file's latencies and bytes from its metadata columns;
        ``key`` must cover everything ``cost`` reads besides them.  A file is
        costed whole, once per key per process, the first time any cursor
        asks; the arrays are shared by every cursor, not to be written to.
        """
        parts = [
            file.derived(("costs", key), lambda file=file: cost(_metadata(file)))
            for file in self._files
        ]
        return _joined([latency for latency, _ in parts]), _joined([size for _, size in parts])

    def rows_of(self, sample_ids: list[int]) -> np.ndarray:
        """The global rows of ``sample_ids``, in that order (an id stored twice
        resolves to its first row).

        Searches each file's sorted-id index, built once per file per process.
        """
        wanted = np.asarray(sample_ids, dtype=np.int64)
        rows = np.full(len(wanted), -1, dtype=np.intp)
        start = 0
        for file in self._files:
            order, ordered = file.derived(("sorted", "sample_id"), lambda file=file: _sorted(file))
            if len(ordered):
                at = np.minimum(np.searchsorted(ordered, wanted), len(ordered) - 1)
                found = (rows < 0) & (ordered[at] == wanted)
                rows[found] = (at[found] if order is None else order[at[found]]) + start
            start += file.total_rows
        missing = wanted[rows < 0]
        if len(missing):
            raise ConfigurationError(f"source {self.source.name!r} has no sample {missing[0]}")
        return rows

    def next_metadata(self) -> SampleMetadata:
        """Return metadata for the next sample (wrapping at the end of shard)."""
        row = self.take(1)
        values = {name: self.column(name)[row].item() for name in _COLUMNS}
        return SampleMetadata(
            self.column("sample_id")[row].item(),
            self.source.name,
            Modality(values.pop("modality")),
            *values.values(),
        )

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


def _sorted(file: ColumnarFile) -> tuple[np.ndarray | None, np.ndarray]:
    """``file``'s sorted-id index: the stable sort order of its ids (``None``
    for ids stored in order, which are their own index) and the sorted ids."""
    ids = file.column("sample_id")
    if (ids[1:] >= ids[:-1]).all():
        return None, ids
    order = np.argsort(ids, kind="stable")
    return order, ids[order]
