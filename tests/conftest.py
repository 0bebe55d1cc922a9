"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

import numpy as np

from repro.core.assembly import PreparedColumns
from repro.core.columns import SampleColumns
from repro.core.plans import MicrobatchAssignment
from repro.data.samples import Modality, SampleMetadata
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


def bucket_samples(module_plan) -> list[list[list[SampleMetadata]]]:
    """Per bucket, its microbatches' planned records; a bucket with fewer
    microbatches is padded with empty ones up to ``num_microbatches``."""
    buckets = [module_plan.bucket_assignments(b) for b in range(module_plan.num_buckets)]
    padding = [[]] * module_plan.num_microbatches
    return [[list(a.samples) for a in bucket] + padding[len(bucket):] for bucket in buckets]


def assignment_of(bucket_index, microbatch_index, samples, estimated_cost=0.0):
    """A microbatch assignment over metadata records."""
    return MicrobatchAssignment(
        bucket_index, microbatch_index, SampleColumns.from_samples(list(samples)), estimated_cost
    )
