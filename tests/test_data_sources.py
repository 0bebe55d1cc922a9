"""Unit tests for data sources, catalogs and cursors."""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.samples import Modality, metadata_from_record
from repro.data.sources import (
    DataSource,
    SourceCatalog,
    SourceCursor,
)
from repro.data.synthetic import SAMPLE_SCHEMA, build_source_catalog, navit_like_spec
from repro.errors import ConfigurationError, CorruptFileError
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


    def test_avg_tokens_sums_text_and_image(self):
        source = DataSource(
            name="vlm", modality=Modality.IMAGE, paths=("/p",), num_samples=1,
            avg_text_tokens=40.0, avg_image_tokens=600.0,
        )
        assert source.avg_tokens == 640.0
        assert make_source().avg_tokens == 64.0


def catalog_of(*sources: DataSource) -> SourceCatalog:
    catalog = SourceCatalog()
    for source in sources:
        catalog.add(source)
    return catalog


class TestSourceCatalog:
    def test_add_and_get(self):
        catalog = catalog_of(make_source("a"), make_source("b"))
        assert catalog.get("a").name == "a"
        assert len(catalog) == 2
        assert "a" in catalog

    def test_duplicate_rejected(self):
        catalog = catalog_of(make_source("a"))
        with pytest.raises(ConfigurationError):
            catalog.add(make_source("a"))

    def test_unknown_source_rejected(self):
        with pytest.raises(ConfigurationError):
            SourceCatalog().get("nope")

    def test_total_samples(self):
        catalog = catalog_of(make_source("a", num_samples=5), make_source("b", num_samples=7))
        assert catalog.total_samples() == 12

    def test_transform_cost_spread_is_large_for_heterogeneous_catalog(self, small_catalog):
        latencies = [source.expected_transform_latency() for source in small_catalog]
        assert max(latencies) / min(latencies) > 2.0


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


def write_source(file_rows, rows_per_group, full_schema, filesystem=None, first_id=100):
    """A source over ``len(file_rows)`` files; returns (source, filesystem, files)."""
    schema = SAMPLE_SCHEMA if full_schema else (
        ColumnSchema("sample_id", "int64"), ColumnSchema("text_tokens", "int32")
    )
    filesystem = filesystem or SimulatedFileSystem()
    files, next_id = [], first_id
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


def per_row_read(located, source):
    return [metadata_from_record(file.read_row(row), source.name) for file, row in located]


@given(
    file_rows=st.lists(st.integers(1, 23), min_size=1, max_size=3),
    rows_per_group=st.integers(1, 9),
    full_schema=st.booleans(),
    shards=st.lists(
        st.tuples(
            st.integers(1, 4), st.integers(0, 3), st.sampled_from([0.0, 0.25, 0.5, 0.9])
        ),
        min_size=2, max_size=3,
    ),
    reads=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 40)), min_size=1, max_size=8),
)
@settings(max_examples=150, deadline=None)
def test_take_columns_equals_the_per_row_read(
    file_rows, rows_per_group, full_schema, shards, reads
):
    source, filesystem, files = write_source(file_rows, rows_per_group, full_schema)

    def cursor(shard_index, shard_count, start_fraction):
        return SourceCursor(source, filesystem, start_fraction, shard_index, shard_count)

    # Several cursors over the same files, each with its own shard and start,
    # read in interleaved chunks (a chunked and a row-by-row cursor per shard).
    shards = [(pick % count, count, fraction) for count, pick, fraction in shards]
    readers = [(cursor(*shard), cursor(*shard), reference_rows(files, *shard)) for shard in shards]
    served = {}  # (path, row) -> the one record every cursor hands out for it
    for pick, count in reads:
        chunked, by_row, rows = readers[pick % len(readers)]
        if not rows:
            with pytest.raises(ConfigurationError):
                chunked.take_columns(1)
            continue
        start = chunked.position
        located = [rows[(start + k) % len(rows)] for k in range(count)]
        chunk = chunked.take_columns(count)
        expected = per_row_read(located, source)
        assert chunk.records == expected
        assert chunk.sample_id == [record.sample_id for record in expected]
        assert chunk.modality == [record.modality for record in expected]
        for column in ("text_tokens", "image_tokens", "video_frames", "raw_bytes", "decoded_bytes"):
            assert getattr(chunk, column) == [getattr(record, column) for record in expected]
        by_row_records = [by_row.next_metadata() for _ in range(count)]
        for (file, row), record, again in zip(located, chunk.records, by_row_records):
            assert record is again is served.setdefault((file.path, row), record)
        assert chunked.position == by_row.position == start + count
        assert chunked.state_dict() == by_row.state_dict()
    widest = max(range(len(readers)), key=lambda index: len(readers[index][2]))
    chunked, _, rows = readers[widest]
    if not rows:
        return
    # The state round-trips, also once the position is past a wrap.
    chunked.take_columns(len(rows))
    resumed = cursor(*shards[widest])
    resumed.load_state_dict(chunked.state_dict())
    assert resumed.take_columns(len(rows) + 2).records == chunked.take_columns(len(rows) + 2).records
    # Peeking reads ahead without moving the cursor.
    state = resumed.state_dict()
    ahead = resumed.peek_ids(len(rows) + 3)
    assert resumed.state_dict() == state
    assert resumed.take_columns(len(rows) + 3).sample_id == ahead
    # A rewritten path is new row groups: a cursor opened afterwards reads the
    # new rows, a cursor opened before keeps reading the file it opened.
    write_source(file_rows, rows_per_group, full_schema, filesystem, first_id=5000)
    total = sum(file_rows)
    assert [r.sample_id for r in SourceCursor(source, filesystem).take(total)] == list(
        range(5000, 5000 + total)
    )
    start = chunked.position
    assert chunked.take(len(rows)) == per_row_read(
        [rows[(start + k) % len(rows)] for k in range(len(rows))], source
    )


def test_cursors_racing_to_decode_the_same_rows_serve_whole_records():
    """``backend="wallclock"`` runs loaders on threads: a racing fill of the shared
    decoded copy may decode a row twice but never hands out a missing or partial one."""
    source, filesystem, files = write_source([97, 64], rows_per_group=16, full_schema=True)
    expected = per_row_read(reference_rows(files, 0, 1, 0.0), source)
    workers = 6
    barrier = threading.Barrier(workers)
    results, errors = {}, []

    def read(worker):
        try:
            cursor = SourceCursor(source, filesystem, start_fraction=0.0)
            barrier.wait(timeout=10)
            records = []
            while len(records) < len(expected):
                records += cursor.take(min(worker + 3, len(expected) - len(records)))
            results[worker] = records
        except Exception as error:  # noqa: BLE001 - reported by the assert below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(worker,)) for worker in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert all(results[worker] == expected for worker in range(workers))
    # Once the race is over every cursor is handed the records that settled.
    settled = SourceCursor(source, filesystem).take(len(expected))
    assert settled == expected
    again = SourceCursor(source, filesystem).take(len(expected))
    assert all(a is b for a, b in zip(settled, again))


def test_a_file_without_sample_ids_is_corrupt_to_peek_and_to_take():
    file = write_columnar_file(
        "/p/0",
        [{"text_tokens": 3}, {"text_tokens": 5}],
        (ColumnSchema("text_tokens", "int32"),),
        rows_per_group=2,
    )
    filesystem = SimulatedFileSystem()
    filesystem.write(file.path, file, size_bytes=file.total_bytes(), kind="columnar")
    source = DataSource(name="p", modality=Modality.TEXT, num_samples=2, paths=(file.path,))
    cursor = SourceCursor(source, filesystem)
    for read in (cursor.peek_ids, cursor.take_columns):
        with pytest.raises(CorruptFileError, match="no column 'sample_id'"):
            read(2)
