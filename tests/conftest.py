"""Shared fixtures for the test suite."""

from __future__ import annotations

import gc
import tracemalloc
from itertools import accumulate, pairwise
from typing import Callable

import pytest

import numpy as np

from repro.core.assembly import PreparedColumns
from repro.core.columns import SampleColumns
from repro.core.plans import ModulePlan
from repro.data.samples import Modality, SampleMetadata
from repro.data.sources import SourceCursor
from repro.data.synthetic import build_source_catalog, navit_like_spec
from repro.parallelism.mesh import DeviceMesh
from repro.storage.columnar import ColumnarFile, write_columnar_file
from repro.storage.filesystem import SimulatedFileSystem


@pytest.fixture()
def filesystem() -> SimulatedFileSystem:
    return SimulatedFileSystem()


@pytest.fixture()
def small_catalog(filesystem):
    """A small heterogeneous catalog (6 sources, 64 samples each)."""
    spec = navit_like_spec(num_sources=6, samples_per_source=64, seed=7)
    return build_source_catalog(spec, filesystem)


@pytest.fixture()
def vlm_mesh() -> DeviceMesh:
    """PP=2, DP=2, CP=2, TP=2 -> 16 ranks."""
    return DeviceMesh(pp=2, dp=2, cp=2, tp=2, gpus_per_node=8)


@pytest.fixture()
def dp_mesh() -> DeviceMesh:
    return DeviceMesh(pp=1, dp=4, cp=1, tp=1, gpus_per_node=4)


def store_columns(filesystem, path, columns, schema, rows_per_group) -> ColumnarFile:
    """Write ``columns`` (name -> values) as a columnar file and store it at ``path``."""
    file = write_columnar_file(path, columns, schema, rows_per_group=rows_per_group)
    filesystem.write(path, file, size_bytes=file.total_bytes(), kind="columnar")
    return file


def costed_take(cursor, count, key, cost) -> tuple[np.ndarray, ...]:
    """What a Source Loader reads for the cursor's next ``count`` rows: their
    sample ids, text and image tokens, transform latencies and staged bytes."""
    return costed_at(cursor, cursor.take(count), key, cost)


def costed_at(cursor, rows, key, cost) -> tuple[np.ndarray, ...]:
    """The loader's five columns at the source's global ``rows``."""
    latency, size = cursor.costs(key, cost)
    columns = (cursor.column(name) for name in ("sample_id", "text_tokens", "image_tokens"))
    return tuple(values[rows] for values in (*columns, latency, size))


def make_sample(
    sample_id: int,
    text_tokens: int = 64,
    image_tokens: int = 0,
    source: str = "src",
    modality: Modality | None = None,
) -> SampleMetadata:
    """Construct sample metadata with sensible byte sizes."""
    if modality is None:
        modality = Modality.IMAGE if image_tokens > 0 else Modality.TEXT
    raw = text_tokens * 4 + image_tokens * 48
    return SampleMetadata(
        sample_id=sample_id,
        source=source,
        modality=modality,
        text_tokens=text_tokens,
        image_tokens=image_tokens,
        raw_bytes=raw,
        decoded_bytes=raw * (12 if image_tokens else 1),
    )


@pytest.fixture()
def sample_factory():
    return make_sample


def prepared_rows(rows) -> PreparedColumns:
    """A hand-off over ``(sample_id, text_tokens, image_tokens, bytes)`` rows."""
    return PreparedColumns(*np.array(rows, dtype=np.int64).reshape(-1, 4).T)


def bucket_samples(module_plan) -> list[list[SampleColumns]]:
    """Per bucket, its microbatches' planned rows."""
    rows = module_plan.rows
    bins = [rows.select(slice(lo, hi)) for lo, hi in pairwise(module_plan.offsets)]
    width = module_plan.num_microbatches
    return [bins[first : first + width] for first in range(0, len(bins), width)]


def gathered_columns(buffer_infos: dict[str, list[SampleMetadata]]) -> SampleColumns:
    """``source -> records`` as the Planner's gather holds them: one set with
    a run of rows per source, in mapping order."""
    parts = [SampleColumns.from_samples(samples) for samples in buffer_infos.values()]
    names = ("sample_ids", "text_tokens", "image_tokens")
    return SampleColumns.gathered(
        list(buffer_infos), [[{name: getattr(part, name) for name in names}] for part in parts]
    )


def retained_bytes(
    run_step: Callable[[int], object], traced_from: int, marks: tuple[int, ...]
) -> list[int]:
    """The bytes a run retains after each of ``marks`` steps: calls
    ``run_step(i)`` for ``i`` up to the last mark, traces allocations
    (tracemalloc) from step ``traced_from`` on and reads the traced total
    after a ``gc.collect()`` at every mark."""
    retained = []
    try:
        for index in range(max(marks) + 1):
            if index == traced_from:
                tracemalloc.start()
            if index in marks:
                gc.collect()
                retained.append(tracemalloc.get_traced_memory()[0])
            if index < max(marks):
                run_step(index)
    finally:
        tracemalloc.stop()
    return retained


def buffered_ids(loader) -> list[int]:
    """A loader's buffered sample ids in buffer order, read without touching
    the gather's change counters (unlike ``buffer_delta``)."""
    return list(loader.replay_checkpoint()["buffer"])


def stored_tokens(loader, sample_ids) -> tuple[list[int], list[int]]:
    """The text and image token counts of ``sample_ids`` as the loader's
    source files store them."""
    cursor = SourceCursor(loader.source, loader.filesystem)
    rows = cursor.rows_of(sample_ids)
    return tuple(cursor.column(name)[rows].tolist() for name in ("text_tokens", "image_tokens"))


def plan_bins(module_plan) -> list[tuple[int, int, list[int], float]]:
    """Per bin, in bin order: ``(bucket, microbatch, sample ids, estimated_cost)``."""
    ids = module_plan.rows.sample_ids.tolist()
    return [
        (*divmod(k, module_plan.num_microbatches), ids[lo:hi], cost)
        for k, ((lo, hi), cost) in enumerate(
            zip(pairwise(module_plan.offsets), module_plan.estimated_costs)
        )
    ]


def module_plan_of(buckets, costs=None, module="backbone", axis="DP") -> ModulePlan:
    """A module plan over records: ``buckets[b][m]`` is microbatch ``m`` of
    bucket ``b``; every bucket lists the same number of microbatches."""
    bins = [list(bin_) for bucket in buckets for bin_ in bucket]
    return ModulePlan(
        module=module,
        axis=axis,
        num_buckets=len(buckets),
        num_microbatches=len(buckets[0]),
        rows=SampleColumns.from_samples([sample for bin_ in bins for sample in bin_]),
        offsets=list(accumulate(map(len, bins), initial=0)),
        estimated_costs=[0.0] * len(bins) if costs is None else list(costs),
    )
