"""Unit tests for the columnar (Parquet-like) file format."""

from __future__ import annotations

import pytest

from repro.errors import CorruptFileError, StorageError
from repro.storage.columnar import ColumnSchema, write_columnar_file

SCHEMA = [
    ColumnSchema("sample_id", "int64", 8),
    ColumnSchema("tokens", "int32", 4),
]


def make_records(count: int) -> list[dict]:
    return [{"sample_id": i, "tokens": i * 10} for i in range(count)]


class TestWrite:
    def test_row_groups_partition_rows(self):
        file = write_columnar_file("/f", make_records(10), SCHEMA, rows_per_group=3)
        assert file.total_rows == 10
        assert [g.row_count for g in file.row_groups] == [3, 3, 3, 1]

    def test_empty_schema_rejected(self):
        with pytest.raises(StorageError):
            write_columnar_file("/f", make_records(1), [], rows_per_group=4)

    def test_missing_column_rejected(self):
        with pytest.raises(StorageError):
            write_columnar_file("/f", [{"sample_id": 1}], SCHEMA, rows_per_group=4)

    def test_footer_bytes_grow_with_row_groups(self):
        small = write_columnar_file("/f", make_records(10), SCHEMA, rows_per_group=10)
        large = write_columnar_file("/f", make_records(10), SCHEMA, rows_per_group=1)
        assert large.footer_bytes > small.footer_bytes

    def test_total_bytes_includes_footer(self):
        file = write_columnar_file("/f", make_records(5), SCHEMA, rows_per_group=4)
        assert file.total_bytes() > file.footer_bytes


class TestRead:
    def test_read_row_roundtrip(self):
        file = write_columnar_file("/f", make_records(10), SCHEMA, rows_per_group=4)
        assert file.read_row(7) == {"sample_id": 7, "tokens": 70}

    def test_row_group_for_row(self):
        file = write_columnar_file("/f", make_records(10), SCHEMA, rows_per_group=4)
        assert file.row_group_for_row(5).index == 1

    def test_out_of_range_row(self):
        file = write_columnar_file("/f", make_records(3), SCHEMA, rows_per_group=4)
        with pytest.raises(StorageError):
            file.read_row(3)

    def test_column_names(self):
        file = write_columnar_file("/f", make_records(1), SCHEMA, rows_per_group=4)
        assert file.column_names() == ["sample_id", "tokens"]


class TestValidation:
    def test_validate_passes_for_written_file(self):
        write_columnar_file("/f", make_records(20), SCHEMA, rows_per_group=7).validate()

    def test_validate_detects_row_count_mismatch(self):
        file = write_columnar_file("/f", make_records(6), SCHEMA, rows_per_group=3)
        file.row_groups[1].columns["tokens"].pop()
        with pytest.raises(CorruptFileError):
            file.validate()

    def test_validate_detects_gap_in_row_groups(self):
        file = write_columnar_file("/f", make_records(6), SCHEMA, rows_per_group=3)
        file.row_groups[1].row_start = 4
        with pytest.raises(CorruptFileError):
            file.validate()

    def test_missing_column_access_raises(self):
        file = write_columnar_file("/f", make_records(2), SCHEMA, rows_per_group=4)
        with pytest.raises(CorruptFileError):
            file.row_groups[0].column("nope")
