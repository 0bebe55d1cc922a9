"""Fig. 5 — CDFs of per-source file-access-state memory and transformation latency.

The paper samples 100 production sources and shows both distributions are
long-tailed: a minority of sources hold most of the file-state memory and the
slowest transformation pipelines are orders of magnitude above the median.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import estimate_transform_pipeline_latency
from repro.data.sources import SourceCursor
from repro.data.synthetic import build_source_catalog, navit_like_spec
from repro.metrics.memory import MemoryLedger
from repro.metrics.report import MetricReport
from repro.storage.filesystem import SimulatedFileSystem
from repro.storage.reader import ColumnarReader
from repro.utils.units import bytes_to_mib

from .conftest import emit

NUM_SOURCES = 100


def _per_source_profiles():
    filesystem = SimulatedFileSystem()
    catalog = build_source_catalog(
        navit_like_spec(num_sources=NUM_SOURCES, samples_per_source=32, seed=5), filesystem
    )
    memory_bytes = []
    for source in catalog:
        ledger = MemoryLedger()
        readers = [ColumnarReader(filesystem, path, ledger) for path in source.paths]
        for reader in readers:
            reader.open()
        # Read each file through, as a real reader iterating it does: the
        # footer and one row-group buffer stay resident.
        cursor = SourceCursor(source, filesystem)
        cursor.next_metadata()
        for reader in readers:
            for row in range(reader.total_rows):
                reader.read_row(row)
        memory_bytes.append(ledger.total_bytes())
        for reader in readers:
            reader.close()
    latencies = list(estimate_transform_pipeline_latency(catalog).values())
    return np.array(memory_bytes, dtype=float), np.array(latencies, dtype=float)


def test_fig5_source_cdfs(benchmark):
    memory_bytes, latencies = benchmark(_per_source_profiles)

    report = MetricReport(
        title="Fig. 5 - per-source file state memory and transform latency percentiles",
        columns=["metric", "p10", "p50", "p90", "p99", "max"],
    )
    report.add_row(
        "file state (MiB)",
        *[round(bytes_to_mib(np.percentile(memory_bytes, p)), 3) for p in (10, 50, 90, 99)],
        round(bytes_to_mib(memory_bytes.max()), 3),
    )
    report.add_row(
        "transform latency (ms/sample)",
        *[round(1e3 * np.percentile(latencies, p), 3) for p in (10, 50, 90, 99)],
        round(1e3 * latencies.max(), 3),
    )
    emit(report)

    assert len(memory_bytes) == NUM_SOURCES
    # Long-tailed latency: the p99 source is far above the median (Fig. 5b).
    assert np.percentile(latencies, 99) > 5 * np.percentile(latencies, 50)
    # Memory per open source is non-trivial and varies across sources.
    assert memory_bytes.min() > 0
    assert memory_bytes.max() > memory_bytes.min()
