"""A Parquet-like columnar file format.

A :class:`ColumnarFile` stores records column-wise in row groups.  Each file
carries a footer (schema, row-group index, statistics) that a reader must load
into memory before it can execute queries — exactly the per-source metadata
state whose replication across dataloader workers drives the memory pressure
analysed in Sec. 2.3 of the paper.

A row group's columns are numpy arrays, built once when the file is written;
readers slice them and decode no row into an object.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.errors import CorruptFileError, StorageError

@dataclass(frozen=True)
class ColumnSchema:
    """Schema of one column (name, logical type, average encoded width)."""

    name: str
    dtype: str
    avg_value_bytes: int = 8


@dataclass
class RowGroup:
    """A contiguous slice of rows stored column-wise."""

    index: int
    row_start: int
    row_count: int
    columns: dict[str, np.ndarray] = field(default_factory=dict)
    compressed_bytes: int = 0
    #: Per Source Loader cost key, every row's transform latency and staged
    #: bytes, computed for the whole (immutable) group on first touch.
    costs: dict[tuple, tuple] = field(default_factory=dict, repr=False, compare=False, init=False)

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise CorruptFileError(f"row group {self.index} has no column {name!r}") from None


@dataclass
class ColumnarFile:
    """An immutable columnar file: schema + row groups + footer statistics."""

    path: str
    schema: tuple[ColumnSchema, ...]
    row_groups: list[RowGroup]
    footer_bytes: int
    total_rows: int
    source_name: str = ""

    def column_names(self) -> list[str]:
        return [column.name for column in self.schema]

    def row_group_for_row(self, row_index: int) -> RowGroup:
        """Locate the row group containing global row ``row_index``."""
        if row_index < 0 or row_index >= self.total_rows:
            raise StorageError(
                f"row {row_index} out of range for file {self.path!r} with {self.total_rows} rows"
            )
        for group in self.row_groups:
            if group.row_start <= row_index < group.row_start + group.row_count:
                return group
        raise CorruptFileError(f"row {row_index} not covered by any row group in {self.path!r}")

    def read_row(self, row_index: int) -> dict[str, object]:
        """Materialise one record as a dict (column name -> value)."""
        group = self.row_group_for_row(row_index)
        offset = row_index - group.row_start
        return {name: group.column(name)[offset].item() for name in self.column_names()}

    def total_bytes(self) -> int:
        return self.footer_bytes + sum(group.compressed_bytes for group in self.row_groups)

    def validate(self) -> None:
        """Integrity check over the row-group index (raises on corruption)."""
        expected_start = 0
        for group in self.row_groups:
            if group.row_start != expected_start:
                raise CorruptFileError(
                    f"row group {group.index} starts at {group.row_start}, expected {expected_start}"
                )
            for column in self.schema:
                values = group.columns.get(column.name)
                if values is None or len(values) != group.row_count:
                    raise CorruptFileError(
                        f"row group {group.index} column {column.name!r} has wrong length"
                    )
            expected_start += group.row_count
        if expected_start != self.total_rows:
            raise CorruptFileError(
                f"row groups cover {expected_start} rows but footer claims {self.total_rows}"
            )


def write_columnar_file(
    path: str,
    columns: Mapping[str, np.ndarray],
    schema: list[ColumnSchema] | tuple[ColumnSchema, ...],
    rows_per_group: int,
    source_name: str = "",
) -> ColumnarFile:
    """Build a :class:`ColumnarFile` from one array per schema column.

    The columns are cut into row groups of ``rows_per_group`` rows each (the
    last group holds the remainder); each group keeps its own copy of its
    slice of every column.
    """
    schema = tuple(schema)
    if not schema:
        raise StorageError("cannot write a columnar file with an empty schema")
    if rows_per_group < 1:
        raise StorageError(f"rows_per_group must be at least 1, got {rows_per_group}")
    missing = [column.name for column in schema if column.name not in columns]
    if missing:
        raise StorageError(f"columns {missing} required by the schema are missing")
    arrays = {column.name: np.asarray(columns[column.name]) for column in schema}
    lengths = {name: len(values) for name, values in arrays.items()}
    total_rows = next(iter(lengths.values()))
    if any(length != total_rows for length in lengths.values()):
        raise StorageError(f"columns have unequal lengths: {lengths}")

    row_groups: list[RowGroup] = []
    for group_index, start in enumerate(range(0, total_rows, rows_per_group)):
        rows = slice(start, start + rows_per_group)
        chunk = {name: values[rows].copy() for name, values in arrays.items()}
        row_groups.append(
            RowGroup(
                index=group_index,
                row_start=start,
                row_count=len(chunk[schema[0].name]),
                columns=chunk,
                compressed_bytes=sum(
                    _chunk_bytes(chunk[column.name], column.avg_value_bytes) for column in schema
                ),
            )
        )

    # Footer holds schema plus per-row-group, per-column statistics.
    footer_bytes = 512 + 64 * len(schema) + 96 * len(row_groups) * len(schema)
    file = ColumnarFile(
        path=path,
        schema=schema,
        row_groups=row_groups,
        footer_bytes=footer_bytes,
        total_rows=total_rows,
        source_name=source_name,
    )
    file.validate()
    return file


def _chunk_bytes(values: np.ndarray, avg_value_bytes: int) -> int:
    """Approximate encoded size of one column chunk: its characters for
    strings, ``avg_value_bytes`` per value otherwise."""
    if values.dtype.kind in "SU":
        return sum(map(len, values.tolist()))
    return avg_value_bytes * len(values)
