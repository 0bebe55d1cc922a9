"""Simulated distributed storage substrate.

The paper reads training data from HDFS/S3 in Apache Parquet format.  This
package provides the closest laptop-scale equivalent: an in-memory distributed
filesystem namespace (:mod:`repro.storage.filesystem`), a columnar file format
with footers, schemas and row groups (:mod:`repro.storage.columnar`) and a
reader that charges the per-open-file access state (socket, footer/schema
metadata, the active row-group buffer) whose replication drives the memory
results in Fig. 4 and Fig. 17b (:mod:`repro.storage.reader`).
"""

from repro.storage.filesystem import SimulatedFileSystem, FileStat
from repro.storage.columnar import ColumnarFile, ColumnSchema, RowGroup, write_columnar_file
from repro.storage.reader import ColumnarReader

__all__ = [
    "SimulatedFileSystem",
    "FileStat",
    "ColumnarFile",
    "ColumnSchema",
    "RowGroup",
    "write_columnar_file",
    "ColumnarReader",
]
