"""Unit tests for the columnar (Parquet-like) file format."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import CorruptFileError, StorageError
from repro.storage.columnar import ColumnSchema, write_columnar_file

SCHEMA = [
    ColumnSchema("sample_id", "int64", 8),
    ColumnSchema("tokens", "int32", 4),
]


def make_columns(count: int) -> dict[str, np.ndarray]:
    return {"sample_id": np.arange(count), "tokens": np.arange(count) * 10}


class TestWrite:
    def test_row_groups_partition_rows(self):
        file = write_columnar_file("/f", make_columns(10), SCHEMA, rows_per_group=3)
        assert file.total_rows == 10
        assert [g.row_count for g in file.row_groups] == [3, 3, 3, 1]

    def test_empty_schema_rejected(self):
        with pytest.raises(StorageError):
            write_columnar_file("/f", make_columns(1), [], rows_per_group=4)

    def test_missing_column_rejected(self):
        with pytest.raises(StorageError, match=r"columns \['tokens'\] required by the schema"):
            write_columnar_file("/f", {"sample_id": np.arange(3)}, SCHEMA, rows_per_group=4)

    def test_unequal_column_lengths_rejected(self):
        columns = {"sample_id": np.arange(3), "tokens": np.arange(2)}
        with pytest.raises(StorageError, match="unequal lengths"):
            write_columnar_file("/f", columns, SCHEMA, rows_per_group=4)

    @pytest.mark.parametrize("rows_per_group", [0, -1])
    def test_rows_per_group_below_one_rejected(self, rows_per_group):
        with pytest.raises(StorageError, match="rows_per_group must be at least 1"):
            write_columnar_file("/f", make_columns(1), SCHEMA, rows_per_group=rows_per_group)

    def test_row_groups_copy_their_slices(self):
        columns = make_columns(6)
        file = write_columnar_file("/f", columns, SCHEMA, rows_per_group=4)
        columns["tokens"][:] = -1
        assert file.row_groups[1].columns["tokens"].tolist() == [40, 50]
        assert file.row_groups[0].columns["tokens"].base is None

    def test_compressed_bytes_count_values_and_characters(self):
        schema = SCHEMA + [ColumnSchema("modality", "string", 8)]
        columns = {**make_columns(3), "modality": np.array(["text", "image", "audio"])}
        (group,) = write_columnar_file("/f", columns, schema, rows_per_group=4).row_groups
        # 3 x 8 id bytes + 3 x 4 token bytes + 4 + 5 + 5 characters.
        assert group.compressed_bytes == 24 + 12 + 14

    def test_footer_bytes_grow_with_row_groups(self):
        small = write_columnar_file("/f", make_columns(10), SCHEMA, rows_per_group=10)
        large = write_columnar_file("/f", make_columns(10), SCHEMA, rows_per_group=1)
        assert large.footer_bytes > small.footer_bytes

    def test_total_bytes_includes_footer(self):
        file = write_columnar_file("/f", make_columns(5), SCHEMA, rows_per_group=4)
        assert file.total_bytes() > file.footer_bytes


class TestRead:
    def test_read_row_roundtrip(self):
        file = write_columnar_file("/f", make_columns(10), SCHEMA, rows_per_group=4)
        assert file.read_row(7) == {"sample_id": 7, "tokens": 70}

    def test_row_group_for_row(self):
        file = write_columnar_file("/f", make_columns(10), SCHEMA, rows_per_group=4)
        assert file.row_group_for_row(5).index == 1

    def test_out_of_range_row(self):
        file = write_columnar_file("/f", make_columns(3), SCHEMA, rows_per_group=4)
        with pytest.raises(StorageError):
            file.read_row(3)

    def test_column_names(self):
        file = write_columnar_file("/f", make_columns(1), SCHEMA, rows_per_group=4)
        assert file.column_names() == ["sample_id", "tokens"]


class TestValidation:
    def test_validate_passes_for_written_file(self):
        write_columnar_file("/f", make_columns(20), SCHEMA, rows_per_group=7).validate()

    def test_validate_detects_row_count_mismatch(self):
        file = write_columnar_file("/f", make_columns(6), SCHEMA, rows_per_group=3)
        group = file.row_groups[1]
        group.columns["tokens"] = group.columns["tokens"][:-1]
        with pytest.raises(CorruptFileError):
            file.validate()

    def test_validate_detects_gap_in_row_groups(self):
        file = write_columnar_file("/f", make_columns(6), SCHEMA, rows_per_group=3)
        file.row_groups[1].row_start = 4
        with pytest.raises(CorruptFileError):
            file.validate()

    def test_missing_column_access_raises(self):
        file = write_columnar_file("/f", make_columns(2), SCHEMA, rows_per_group=4)
        with pytest.raises(CorruptFileError):
            file.row_groups[0].column("nope")
