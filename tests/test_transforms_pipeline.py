"""Unit tests for composable transform pipelines and deferred transforms."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.samples import MetadataColumns, Modality, Sample, SampleMetadata
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

    def test_unknown_deferred_rejected(self):
        with pytest.raises(TransformError):
            TransformPipeline([TextTokenize()], deferred={"image_decode"})

    def test_for_modality_builds_default_chain(self):
        # Deferring a stage the chain lacks is rejected, so this proves it has one.
        pipeline = TransformPipeline.for_modality(Modality.IMAGE, deferred={"image_decode"})
        assert pipeline.deferred_names == ["image_decode"]


class TestRun:
    def test_run_applies_matching_stages(self, sample_factory):
        pipeline = TransformPipeline.for_modality(Modality.IMAGE)
        sample = Sample(metadata=sample_factory(1, text_tokens=20, image_tokens=100))
        result = pipeline.run(sample)
        assert result.latency_s > 0
        assert "image_decode" in sample.applied_transforms
        assert result.deferred_transforms == []

    def test_modality_filter_skips_stages(self, sample_factory):
        pipeline = TransformPipeline([TextTokenize(), ImageDecode()])
        sample = Sample(metadata=sample_factory(1, text_tokens=20, image_tokens=0, modality=Modality.TEXT))
        pipeline.run(sample)
        assert "image_decode" not in sample.applied_transforms

    def test_deferred_stage_not_run_but_recorded(self, sample_factory):
        pipeline = TransformPipeline.for_modality(Modality.IMAGE, deferred={"image_decode"})
        sample = Sample(metadata=sample_factory(1, image_tokens=100))
        result = pipeline.run(sample)
        assert result.deferred_transforms == ["image_decode"]
        assert "image_decode" not in sample.applied_transforms

    def test_deferring_decode_ships_raw_bytes(self, sample_factory):
        metadata = sample_factory(1, image_tokens=200)
        eager = TransformPipeline.for_modality(Modality.IMAGE)
        deferred = TransformPipeline.for_modality(Modality.IMAGE, deferred={"image_decode"})
        eager_bytes = eager.run(Sample(metadata=metadata)).transferred_bytes
        deferred_bytes = deferred.run(Sample(metadata=metadata)).transferred_bytes
        assert deferred_bytes < eager_bytes


class TestEstimates:
    def test_estimate_matches_actual_order_of_magnitude(self, sample_factory):
        pipeline = TransformPipeline.for_modality(Modality.IMAGE)
        metadata = sample_factory(1, text_tokens=50, image_tokens=500)
        estimate = pipeline.estimate_latency(metadata)
        actual = pipeline.run(Sample(metadata=metadata)).latency_s
        assert estimate == pytest.approx(actual, rel=0.2)

    def test_estimate_excluding_deferred_is_smaller(self, sample_factory):
        pipeline = TransformPipeline.for_modality(Modality.IMAGE, deferred={"image_decode"})
        metadata = sample_factory(1, image_tokens=500)
        full = pipeline.estimate_latency(metadata, include_deferred=True)
        partial = pipeline.estimate_latency(metadata, include_deferred=False)
        assert partial < full

    def test_deferred_names_property(self):
        pipeline = TransformPipeline.for_modality(Modality.IMAGE, deferred={"image_decode"})
        assert pipeline.deferred_names == ["image_decode"]


# -- the column evaluator against the per-sample reference -----------------------------

#: The four modality defaults plus a chain whose crop feeds a later stage.
PIPELINE_STAGES = [default_transforms_for(modality) for modality in Modality] + [
    [TextTokenize(), ImageCrop(max_patches=512), ImageDecode()]
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


@given(
    stages=st.sampled_from(PIPELINE_STAGES),
    deferred_mask=st.lists(st.booleans(), min_size=4, max_size=4),
    rows=metadata_rows,
)
@settings(max_examples=150, deadline=None)
def test_run_columns_equals_run_sample_by_sample(stages, deferred_mask, rows):
    """Every deferred subset, mixed-modality chunks: floats and bytes equal exactly."""
    deferred = {stage.name for stage, drop in zip(stages, deferred_mask) if drop}
    pipeline = TransformPipeline(stages, deferred=deferred)
    reference = [pipeline.run(Sample(metadata=row)) for row in rows]
    latencies, transferred = pipeline.run_columns(MetadataColumns.from_records(rows))
    assert latencies == [result.latency_s for result in reference]
    assert transferred == [result.transferred_bytes for result in reference]
