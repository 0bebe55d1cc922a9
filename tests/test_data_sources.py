"""Unit tests for data sources, catalogs and cursors."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.samples import Modality, metadata_from_record
from repro.data.sources import (
    DataSource,
    SourceCatalog,
    SourceCursor,
    estimate_source_weights,
    heterogeneity_index,
)
from repro.data.synthetic import SAMPLE_SCHEMA, build_source_catalog, navit_like_spec
from repro.errors import ConfigurationError
from repro.storage.columnar import ColumnSchema, write_columnar_file
from repro.storage.filesystem import SimulatedFileSystem


def make_source(name="s", modality=Modality.TEXT, num_samples=10):
    return DataSource(
        name=name, modality=modality, paths=("/data/x",), num_samples=num_samples
    )


class TestDataSource:
    def test_requires_samples(self):
        with pytest.raises(ConfigurationError):
            make_source(num_samples=0)

    def test_requires_paths(self):
        with pytest.raises(ConfigurationError):
            DataSource(name="s", modality=Modality.TEXT, paths=(), num_samples=1)

    def test_expected_latency_scales_with_cost(self):
        cheap = make_source("cheap")
        expensive = DataSource(
            name="exp",
            modality=Modality.IMAGE,
            paths=("/p",),
            num_samples=1,
            avg_image_tokens=1000,
        )
        assert expensive.expected_transform_latency() > cheap.expected_transform_latency()


class TestSourceCatalog:
    def test_add_and_get(self):
        catalog = SourceCatalog([make_source("a"), make_source("b")])
        assert catalog.get("a").name == "a"
        assert len(catalog) == 2
        assert "a" in catalog

    def test_duplicate_rejected(self):
        catalog = SourceCatalog([make_source("a")])
        with pytest.raises(ConfigurationError):
            catalog.add(make_source("a"))

    def test_unknown_source_rejected(self):
        with pytest.raises(ConfigurationError):
            SourceCatalog().get("nope")

    def test_total_samples(self):
        catalog = SourceCatalog([make_source("a", num_samples=5), make_source("b", num_samples=7)])
        assert catalog.total_samples() == 12

    def test_by_modality(self, small_catalog):
        images = small_catalog.by_modality(Modality.IMAGE)
        assert all(source.modality is Modality.IMAGE for source in images)

    def test_transform_cost_spread_is_large_for_heterogeneous_catalog(self, small_catalog):
        assert small_catalog.transform_cost_spread() > 2.0

    def test_empty_catalog_spread(self):
        assert SourceCatalog().transform_cost_spread() == 1.0


class TestSourceCursor:
    @pytest.fixture()
    def catalog(self, filesystem):
        return build_source_catalog(
            navit_like_spec(num_sources=2, samples_per_source=20, seed=1), filesystem
        )

    def test_sequential_reads_and_wraparound(self, filesystem, catalog):
        source = catalog.sources()[0]
        cursor = SourceCursor(source, filesystem)
        first = cursor.next_metadata()
        for _ in range(source.num_samples - 1):
            cursor.next_metadata()
        wrapped = cursor.next_metadata()
        assert wrapped.sample_id == first.sample_id

    def test_sharding_partitions_rows(self, filesystem, catalog):
        source = catalog.sources()[0]
        shard0 = SourceCursor(source, filesystem, shard_index=0, shard_count=2)
        shard1 = SourceCursor(source, filesystem, shard_index=1, shard_count=2)
        ids0 = {m.sample_id for m in shard0.take(source.num_samples // 2)}
        ids1 = {m.sample_id for m in shard1.take(source.num_samples // 2)}
        assert not ids0 & ids1

    def test_invalid_shard_rejected(self, filesystem, catalog):
        source = catalog.sources()[0]
        with pytest.raises(ConfigurationError):
            SourceCursor(source, filesystem, shard_index=2, shard_count=2)

    def test_state_dict_roundtrip(self, filesystem, catalog):
        source = catalog.sources()[0]
        cursor = SourceCursor(source, filesystem)
        cursor.take(5)
        state = cursor.state_dict()
        other = SourceCursor(source, filesystem)
        other.load_state_dict(state)
        assert other.next_metadata().sample_id == cursor.next_metadata().sample_id

    def test_state_dict_shard_mismatch(self, filesystem, catalog):
        source = catalog.sources()[0]
        cursor = SourceCursor(source, filesystem, shard_index=0, shard_count=2)
        other = SourceCursor(source, filesystem)
        with pytest.raises(ConfigurationError):
            other.load_state_dict(cursor.state_dict())


def write_source(file_rows, rows_per_group, full_schema):
    """A source over ``len(file_rows)`` files; returns (source, filesystem, files)."""
    schema = SAMPLE_SCHEMA if full_schema else (
        ColumnSchema("sample_id", "int64"), ColumnSchema("text_tokens", "int32")
    )
    filesystem = SimulatedFileSystem()
    files, next_id = [], 100
    for index, count in enumerate(file_rows):
        records = [
            {
                "sample_id": next_id + row,
                "modality": ("image", "video", "text")[(next_id + row) % 3],
                "text_tokens": 7 * (next_id + row) % 501,
                "image_tokens": 11 * (next_id + row) % 3001,
                "video_frames": (next_id + row) % 5,
                "audio_seconds": (next_id + row) / 8.0,
                "raw_bytes": 4 * (next_id + row),
                "decoded_bytes": 48 * (next_id + row),
            }
            for row in range(count)
        ]
        next_id += count
        file = write_columnar_file(f"/p/{index}", records, schema, rows_per_group=rows_per_group)
        filesystem.write(file.path, file, size_bytes=file.total_bytes(), kind="columnar")
        files.append(file)
    source = DataSource(
        name="p", modality=Modality.IMAGE, num_samples=sum(file_rows),
        paths=tuple(file.path for file in files),
    )
    return source, filesystem, files


def reference_rows(files, shard_index, shard_count, start_fraction):
    """The shard's rows in read order, the way the per-row cursor listed them."""
    located = [(file, row) for file in files for row in range(file.total_rows)]
    shard = [pair for row, pair in enumerate(located) if row % shard_count == shard_index]
    offset = int(start_fraction * len(shard)) % max(1, len(shard))
    return shard[offset:] + shard[:offset]


@given(
    file_rows=st.lists(st.integers(1, 23), min_size=1, max_size=3),
    rows_per_group=st.integers(1, 9),
    full_schema=st.booleans(),
    shard_count=st.integers(1, 4),
    shard_pick=st.integers(0, 3),
    start_fraction=st.sampled_from([0.0, 0.25, 0.5, 0.9]),
    chunks=st.lists(st.integers(0, 40), min_size=1, max_size=6),
)
@settings(max_examples=150, deadline=None)
def test_take_columns_equals_the_per_row_read(
    file_rows, rows_per_group, full_schema, shard_count, shard_pick, start_fraction, chunks
):
    source, filesystem, files = write_source(file_rows, rows_per_group, full_schema)
    shard_index = shard_pick % shard_count
    rows = reference_rows(files, shard_index, shard_count, start_fraction)

    def cursor():
        return SourceCursor(source, filesystem, start_fraction, shard_index, shard_count)

    chunked, by_row = cursor(), cursor()
    if not rows:
        with pytest.raises(ConfigurationError):
            chunked.take_columns(1)
        return
    for count in chunks:
        start = chunked.position
        chunk = chunked.take_columns(count)
        expected = [
            metadata_from_record(file.read_row(row), source.name)
            for file, row in (rows[(start + k) % len(rows)] for k in range(count))
        ]
        assert chunk.records == expected
        assert chunk.records == [by_row.next_metadata() for _ in range(count)]
        assert chunk.sample_id == [record.sample_id for record in expected]
        assert chunk.modality == [record.modality for record in expected]
        for column in ("text_tokens", "image_tokens", "video_frames", "raw_bytes", "decoded_bytes"):
            assert getattr(chunk, column) == [getattr(record, column) for record in expected]
        assert chunked.position == by_row.position == start + count
        assert chunked.state_dict() == by_row.state_dict()
    # The state round-trips, also once the position is past a wrap.
    chunked.take_columns(len(rows))
    resumed = cursor()
    resumed.load_state_dict(chunked.state_dict())
    assert resumed.take_columns(len(rows) + 2).records == chunked.take_columns(len(rows) + 2).records
    # Peeking reads ahead without moving the cursor.
    state = resumed.state_dict()
    ahead = resumed.peek_ids(len(rows) + 3)
    assert resumed.state_dict() == state
    assert resumed.take_columns(len(rows) + 3).sample_id == ahead


class TestHelpers:
    def test_estimate_source_weights_proportional(self):
        sources = [make_source("a", num_samples=30), make_source("b", num_samples=10)]
        weights = estimate_source_weights(sources)
        assert weights["a"] == pytest.approx(0.75)
        assert weights["b"] == pytest.approx(0.25)

    def test_heterogeneity_index_zero_for_identical_sources(self):
        sources = [make_source("a"), make_source("b")]
        assert heterogeneity_index(sources) == pytest.approx(0.0)

    def test_heterogeneity_index_positive_for_mixed_catalog(self, small_catalog):
        assert heterogeneity_index(small_catalog.sources()) > 0.0
