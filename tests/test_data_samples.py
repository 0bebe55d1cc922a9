"""Unit tests for sample metadata."""

from __future__ import annotations

import pytest

from repro.data.samples import Modality, metadata_from_record
from repro.transforms.pipeline import TransformPipeline


class TestSampleMetadata:
    def test_total_tokens(self, sample_factory):
        metadata = sample_factory(1, text_tokens=30, image_tokens=70)
        assert metadata.total_tokens == 100

    def test_with_updates_returns_copy(self, sample_factory):
        metadata = sample_factory(1, text_tokens=10)
        updated = metadata.with_updates(text_tokens=20)
        assert metadata.text_tokens == 10
        assert updated.text_tokens == 20
        assert updated.sample_id == metadata.sample_id

    def test_metadata_is_hashable(self, sample_factory):
        assert len({sample_factory(1), sample_factory(1)}) == 1

    def test_modality_string_round_trip(self):
        assert Modality("image") is Modality.IMAGE
        assert str(Modality.VIDEO) == "video"


class TestMetadataFromRecord:
    def test_full_record(self):
        record = {
            "sample_id": 5,
            "modality": "image",
            "text_tokens": 12,
            "image_tokens": 300,
            "raw_bytes": 1000,
            "decoded_bytes": 12000,
        }
        metadata = metadata_from_record(record, source="src-a")
        assert metadata.sample_id == 5
        assert metadata.modality is Modality.IMAGE
        assert metadata.source == "src-a"
        assert metadata.total_tokens == 312

    def test_a_record_carries_what_the_transforms_cost(self):
        record = {
            "sample_id": 9, "modality": "video", "text_tokens": 20, "image_tokens": 1024,
            "video_frames": 8, "raw_bytes": 5000, "decoded_bytes": 9000,
        }
        metadata = metadata_from_record(record, source="src-v")
        latency, transferred = TransformPipeline.for_modality(Modality.VIDEO).run(metadata)
        # tokenize 20 x 2e-6, keyframes 8 x 0.004 + 0.002, decode and crop
        # 1024 x (1.5e-4 + 1.2e-5)
        assert latency == pytest.approx(4e-5 + 0.034 + 1024 * 1.62e-4)
        assert transferred == 9000

    def test_defaults_for_missing_fields(self):
        metadata = metadata_from_record({"sample_id": 1}, source="s")
        assert metadata.modality is Modality.TEXT
        assert metadata.text_tokens == 0

    def test_invalid_modality_raises(self):
        with pytest.raises(ValueError):
            metadata_from_record({"sample_id": 1, "modality": "hologram"}, source="s")
