"""Unit tests for data sources, catalogs and cursors."""

from __future__ import annotations

import sys
import threading

import numpy as np
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
from repro.storage.columnar import ColumnSchema
from repro.storage.filesystem import SimulatedFileSystem
from conftest import costed_at, costed_take, store_columns


def take(cursor, count):
    """The records of the cursor's next ``count`` rows."""
    return [cursor.next_metadata() for _ in range(count)]


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
        ids0 = {m.sample_id for m in take(shard0, source.num_samples // 2)}
        ids1 = {m.sample_id for m in take(shard1, source.num_samples // 2)}
        assert not ids0 & ids1

    def test_invalid_shard_rejected(self, filesystem, catalog):
        source = catalog.sources()[0]
        with pytest.raises(ConfigurationError):
            SourceCursor(source, filesystem, shard_index=2, shard_count=2)

    def test_state_dict_roundtrip(self, filesystem, catalog):
        source = catalog.sources()[0]
        cursor = SourceCursor(source, filesystem)
        take(cursor, 5)
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
        ColumnSchema("sample_id"), ColumnSchema("text_tokens")
    )
    filesystem = filesystem or SimulatedFileSystem()
    files, next_id = [], first_id
    for index, count in enumerate(file_rows):
        ids = np.arange(next_id, next_id + count)
        columns = {
            "sample_id": ids,
            "modality": np.array(["image", "video", "text"])[ids % 3],
            "text_tokens": 7 * ids % 501,
            "image_tokens": 11 * ids % 3001,
            "video_frames": ids % 5,
            "audio_seconds": ids / 8.0,
            "raw_bytes": 4 * ids,
            "decoded_bytes": 48 * ids,
        }
        next_id += count
        files.append(store_columns(filesystem, f"/p/{index}", columns, schema, rows_per_group))
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


def toy_cost(columns):
    """A stand-in for a loader's row costing: reads two metadata columns."""
    return columns["text_tokens"] * 0.5 + 1.0, columns["raw_bytes"] + 7


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
def test_chunked_reads_equal_the_per_row_read(
    file_rows, rows_per_group, full_schema, shards, reads
):
    source, filesystem, files = write_source(file_rows, rows_per_group, full_schema)

    def cursor(shard_index, shard_count, start_fraction):
        return SourceCursor(source, filesystem, start_fraction, shard_index, shard_count)

    # Several cursors over the same files, each with its own shard and start,
    # read in interleaved chunks: records, costed rows and row by row.
    shards = [(pick % count, count, fraction) for count, pick, fraction in shards]
    readers = [
        (cursor(*shard), cursor(*shard), cursor(*shard), reference_rows(files, *shard))
        for shard in shards
    ]
    for pick, count in reads:
        chunked, costed, by_row, rows = readers[pick % len(readers)]
        if not rows:
            with pytest.raises(ConfigurationError):
                take(chunked, 1)
            with pytest.raises(ConfigurationError):
                costed.take(1)
            continue
        start = chunked.position
        located = [rows[(start + k) % len(rows)] for k in range(count)]
        expected = per_row_read(located, source)
        assert take(chunked, count) == expected
        ids, text, image, latency, size = costed_take(costed, count, ("toy",), toy_cost)
        assert ids.tolist() == [record.sample_id for record in expected]
        assert text.tolist() == [record.text_tokens for record in expected]
        assert image.tolist() == [record.image_tokens for record in expected]
        assert latency.tolist() == [record.text_tokens * 0.5 + 1.0 for record in expected]
        assert size.tolist() == [record.raw_bytes + 7 for record in expected]
        assert [by_row.next_metadata() for _ in range(count)] == expected
        restored = costed_at(costed, costed.rows_of(ids.tolist()), ("toy",), toy_cost)
        assert all(a.tolist() == b.tolist() for a, b in zip(restored, (ids, text, image, latency, size)))
        assert chunked.position == costed.position == by_row.position == start + count
        assert chunked.state_dict() == by_row.state_dict()
    widest = max(range(len(readers)), key=lambda index: len(readers[index][3]))
    chunked, _, _, rows = readers[widest]
    if not rows:
        return
    # The state round-trips, also once the position is past a wrap.
    take(chunked, len(rows))
    resumed = cursor(*shards[widest])
    resumed.load_state_dict(chunked.state_dict())
    assert take(resumed, len(rows) + 2) == take(chunked, len(rows) + 2)
    # A rewind gives back rows read past where a refill stops.
    state = resumed.state_dict()
    ahead = costed_take(resumed, len(rows) + 3, ("toy",), toy_cost)[0].tolist()
    resumed.rewind(len(rows) + 3)
    assert resumed.state_dict() == state
    assert [record.sample_id for record in take(resumed, len(rows) + 3)] == ahead
    # A rewritten path is new row groups: a cursor opened afterwards reads the
    # new rows, a cursor opened before keeps reading the file it opened.
    write_source(file_rows, rows_per_group, full_schema, filesystem, first_id=5000)
    total = sum(file_rows)
    assert [r.sample_id for r in take(SourceCursor(source, filesystem), total)] == list(
        range(5000, 5000 + total)
    )
    start = chunked.position
    assert take(chunked, len(rows)) == per_row_read(
        [rows[(start + k) % len(rows)] for k in range(len(rows))], source
    )


def test_a_file_is_costed_once_per_key():
    source, filesystem, files = write_source([20, 7], rows_per_group=8, full_schema=True)
    calls = []

    def counting_cost(columns):
        calls.append(len(columns["text_tokens"]))
        return toy_cost(columns)

    first = SourceCursor(source, filesystem)
    second = SourceCursor(source, filesystem, shard_index=1, shard_count=2)
    costed_take(first, 5, ("counted",), counting_cost)
    costed_take(second, 20, ("counted",), counting_cost)
    latency, size = first.costs(("counted",), counting_cost)
    # Whole files, each once: 20 + 7 rows, whatever cursor read them.
    assert calls == [20, 7]
    assert latency.tolist() == sum((toy_cost(file.columns)[0].tolist() for file in files), [])
    assert size.tolist() == sum((toy_cost(file.columns)[1].tolist() for file in files), [])
    # One source-wide array per cost key for a one-file source: the file's own.
    lone, lone_filesystem, (file,) = write_source([9], rows_per_group=4, full_schema=True)
    cursor = SourceCursor(lone, lone_filesystem)
    assert cursor.costs(("counted",), counting_cost)[0] is cursor.costs(("counted",), toy_cost)[0]
    assert cursor.column("text_tokens") is file.columns["text_tokens"]
    assert calls == [20, 7, 9]
    # Another key is costed anew.
    second.costs(("other",), counting_cost)
    assert calls == [20, 7, 9, 20, 7]


def test_cursors_racing_to_cost_the_same_rows_agree():
    """``backend="wallclock"`` runs loaders on threads: cursors racing to cost a
    row group may compute its costs twice, but every cursor reads one result."""
    source, filesystem, files = write_source([97, 64], rows_per_group=16, full_schema=True)
    expected = costed_take(SourceCursor(source, filesystem), 161, ("reference",), toy_cost)
    workers = 6
    barrier = threading.Barrier(workers)
    results, errors = {}, []

    def read(worker):
        try:
            cursor = SourceCursor(source, filesystem, start_fraction=0.0)
            barrier.wait(timeout=10)
            parts = []
            while sum(len(part[0]) for part in parts) < 161:
                taken = sum(len(part[0]) for part in parts)
                parts.append(costed_take(cursor, min(worker + 3, 161 - taken), ("raced",), toy_cost))
            results[worker] = [sum((part[i].tolist() for part in parts), []) for i in range(5)]
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
    assert all(results[worker] == [a.tolist() for a in expected] for worker in range(workers))


def test_a_file_without_sample_ids_is_corrupt_to_peek_and_to_take():
    filesystem = SimulatedFileSystem()
    file = store_columns(
        filesystem,
        "/p/0",
        {"text_tokens": np.array([3, 5])},
        (ColumnSchema("text_tokens"),),
        rows_per_group=2,
    )
    source = DataSource(name="p", modality=Modality.TEXT, num_samples=2, paths=(file.path,))
    cursor = SourceCursor(source, filesystem)
    reads = (
        cursor.next_metadata,
        lambda: costed_take(cursor, 2, ("toy",), toy_cost),
        lambda: cursor.rows_of([3]),
    )
    for read in reads:
        with pytest.raises(CorruptFileError, match="no column 'sample_id'"):
            read()


def test_ids_stored_out_of_order_or_twice_resolve_to_their_first_row():
    filesystem = SimulatedFileSystem()
    schema = (ColumnSchema("sample_id"), ColumnSchema("text_tokens"))
    for path, ids in (("/p/0", [7, 3, 9, 3, 1]), ("/p/1", [2, 9])):
        ids = np.array(ids)
        store_columns(filesystem, path, {"sample_id": ids, "text_tokens": 10 * ids}, schema, 2)
    source = DataSource(name="p", modality=Modality.TEXT, num_samples=7, paths=("/p/0", "/p/1"))
    cursor = SourceCursor(source, filesystem)
    assert cursor.rows_of([9, 3, 2, 1, 7]).tolist() == [2, 1, 5, 4, 0]
    assert cursor.column("text_tokens")[cursor.rows_of([9, 3, 2])].tolist() == [90, 30, 20]
    with pytest.raises(ConfigurationError, match="has no sample 4"):
        cursor.rows_of([1, 4])
