"""A Parquet-like columnar file format.

A :class:`ColumnarFile` stores records column-wise in row groups.  Each file
carries a footer (schema, row-group index, statistics) that a reader must load
into memory before it can execute queries — exactly the per-source metadata
state whose replication across dataloader workers drives the memory pressure
analysed in Sec. 2.3 of the paper.

A file holds each column once, as one read-only numpy array built when the
file is written; its row groups' columns are views of those arrays.  Readers
index them and decode no row into an object.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import TypeVar

import numpy as np

from repro.errors import CorruptFileError, StorageError

T = TypeVar("T")


@dataclass(frozen=True)
class ColumnSchema:
    """Schema of one column: its name and ``avg_value_bytes``, the modelled
    compressed width of one value, which a numeric chunk's
    ``compressed_bytes`` counts per row.  A column is stored at its array's
    dtype; a string chunk is charged its characters instead."""

    name: str
    avg_value_bytes: int = 8


@dataclass
class RowGroup:
    """A contiguous slice of rows stored column-wise."""

    index: int
    row_start: int
    row_count: int
    columns: dict[str, np.ndarray] = field(default_factory=dict)
    compressed_bytes: int = 0

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
    #: Every schema column over all rows, one read-only array each; the row
    #: groups' columns are views of these.
    columns: dict[str, np.ndarray] = field(default_factory=dict, repr=False)
    #: What :meth:`derived` computed, by key.
    _derived: dict[tuple, object] = field(default_factory=dict, repr=False, compare=False, init=False)

    def column_names(self) -> list[str]:
        return [column.name for column in self.schema]

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise CorruptFileError(f"file {self.path!r} has no column {name!r}") from None

    def derived(self, key: tuple, build: Callable[[], T]) -> T:
        """``build()``, computed once per ``key`` per process and kept with the file.

        For arrays that are a pure function of the (immutable) columns, such
        as a Source Loader's row costs or a column's sort order.  Threads
        racing on a new key may each build it; the first stored wins and
        every caller gets that one.
        """
        value = self._derived.get(key)
        if value is None:
            value = self._derived.setdefault(key, build())
        return value

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

    Each column is copied once into a read-only array the file keeps, and
    cut into row groups of ``rows_per_group`` rows each (the last group holds
    the remainder) whose columns are views of that array, so the file holds
    every value once.
    """
    schema = tuple(schema)
    if not schema:
        raise StorageError("cannot write a columnar file with an empty schema")
    if rows_per_group < 1:
        raise StorageError(f"rows_per_group must be at least 1, got {rows_per_group}")
    missing = [column.name for column in schema if column.name not in columns]
    if missing:
        raise StorageError(f"columns {missing} required by the schema are missing")
    arrays = {column.name: np.array(columns[column.name]) for column in schema}
    for values in arrays.values():
        values.flags.writeable = False
    lengths = {name: len(values) for name, values in arrays.items()}
    total_rows = next(iter(lengths.values()))
    if any(length != total_rows for length in lengths.values()):
        raise StorageError(f"columns have unequal lengths: {lengths}")

    row_groups: list[RowGroup] = []
    for group_index, start in enumerate(range(0, total_rows, rows_per_group)):
        rows = slice(start, start + rows_per_group)
        chunk = {name: values[rows] for name, values in arrays.items()}
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
        columns=arrays,
    )
    file.validate()
    return file


def _chunk_bytes(values: np.ndarray, avg_value_bytes: int) -> int:
    """Approximate encoded size of one column chunk: its characters for
    strings, ``avg_value_bytes`` per value otherwise."""
    if values.dtype.kind in "SU":
        return sum(map(len, values.tolist()))
    return avg_value_bytes * len(values)
