"""Unit tests for composable transform pipelines."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.samples import Modality, Sample, SampleMetadata
from repro.errors import TransformError
from repro.transforms.pipeline import TransformPipeline
from repro.transforms.sample import (
    ImageCrop,
    ImageDecode,
    TextTokenize,
    default_transforms_for,
)


class TestConstruction:
    def test_requires_transforms(self):
        with pytest.raises(TransformError):
            TransformPipeline([])

    def test_for_modality_builds_default_chain(self):
        pipeline = TransformPipeline.for_modality(Modality.IMAGE)
        assert [stage.name for stage in pipeline._transforms] == [
            "text_tokenize",
            "image_decode",
            "image_crop",
        ]


class TestRun:
    def test_run_applies_matching_stages(self, sample_factory):
        pipeline = TransformPipeline.for_modality(Modality.IMAGE)
        sample = Sample(metadata=sample_factory(1, text_tokens=20, image_tokens=100))
        result = pipeline.run(sample)
        assert result.latency_s > 0
        assert "image_decode" in sample.applied_transforms

    def test_modality_filter_skips_stages(self, sample_factory):
        pipeline = TransformPipeline([TextTokenize(), ImageDecode()])
        sample = Sample(metadata=sample_factory(1, text_tokens=20, image_tokens=0, modality=Modality.TEXT))
        pipeline.run(sample)
        assert "image_decode" not in sample.applied_transforms

    def test_run_ships_decoded_bytes(self, sample_factory):
        metadata = sample_factory(1, image_tokens=200)
        result = TransformPipeline.for_modality(Modality.IMAGE).run(Sample(metadata=metadata))
        assert result.transferred_bytes == max(metadata.decoded_bytes, metadata.raw_bytes, 1)


class TestEstimates:
    def test_estimate_matches_actual_order_of_magnitude(self, sample_factory):
        pipeline = TransformPipeline.for_modality(Modality.IMAGE)
        metadata = sample_factory(1, text_tokens=50, image_tokens=500)
        estimate = pipeline.estimate_latency(metadata)
        actual = pipeline.run(Sample(metadata=metadata)).latency_s
        assert estimate == pytest.approx(actual, rel=0.2)


# -- the column evaluator against the per-sample reference -----------------------------

class _SmallCrop(ImageCrop):
    max_patches = 512


#: The four modality defaults plus a chain whose crop feeds a later stage.
PIPELINE_STAGES = [default_transforms_for(modality) for modality in Modality] + [
    [TextTokenize(), _SmallCrop(), ImageDecode()]
]

metadata_rows = st.lists(
    st.builds(
        SampleMetadata,
        sample_id=st.integers(0, 10**6),
        source=st.just("src"),
        modality=st.sampled_from(list(Modality)),
        # Zero-token samples and images past ``ImageCrop.max_patches`` included.
        text_tokens=st.integers(0, 9000),
        image_tokens=st.one_of(st.integers(0, 600), st.integers(16000, 17000)),
        video_frames=st.integers(0, 300),
        raw_bytes=st.integers(0, 10**7),
        decoded_bytes=st.integers(0, 10**8),
    ),
    max_size=10,
)


@given(stages=st.sampled_from(PIPELINE_STAGES), rows=metadata_rows)
@settings(max_examples=150, deadline=None)
def test_run_columns_equals_run_sample_by_sample(stages, rows):
    """Mixed-modality chunks: floats and bytes equal exactly."""
    pipeline = TransformPipeline(stages)
    reference = [pipeline.run(Sample(metadata=row)) for row in rows]
    latencies, transferred = pipeline.run_columns(columns_of(rows))
    assert latencies.dtype == np.float64 and transferred.dtype == np.int64
    assert latencies.tolist() == [result.latency_s for result in reference]
    assert transferred.tolist() == [result.transferred_bytes for result in reference]


def columns_of(rows):
    """``rows`` as the typed metadata columns a row group holds."""
    columns = {
        name: np.array([getattr(row, name) for row in rows], dtype=np.int64)
        for name in ("text_tokens", "image_tokens", "video_frames", "raw_bytes", "decoded_bytes")
    }
    columns["modality"] = np.array([row.modality.value for row in rows], dtype=str)
    return columns
