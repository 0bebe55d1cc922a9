"""Unit tests for sample-level transformations."""

from __future__ import annotations

import pytest

from repro.data.samples import Modality, Sample
from repro.errors import TransformError
from repro.transforms.sample import (
    AudioFeaturize,
    ImageCrop,
    ImageDecode,
    TextTokenize,
    VideoKeyframeExtract,
    default_transforms_for,
)


class TestTextTokenize:
    def test_produces_token_ids(self, sample_factory):
        sample = Sample(metadata=sample_factory(1, text_tokens=50))
        latency = TextTokenize().apply(sample)
        assert len(sample.payload["text_token_ids"]) == 50
        assert latency == pytest.approx(50 * 2.0e-6)
        assert sample.state == "tokenized"

    def test_latency_estimate_matches_apply(self, sample_factory):
        transform = TextTokenize()
        sample = Sample(metadata=sample_factory(1, text_tokens=128))
        assert transform.apply(sample) == pytest.approx(transform.estimate_latency(128, 0))


class TestImageDecode:
    def test_decodes_patches(self, sample_factory):
        sample = Sample(metadata=sample_factory(1, image_tokens=200))
        latency = ImageDecode().apply(sample)
        assert sample.payload["image_patches"].shape[0] == 200
        assert latency > TextTokenize().estimate_latency(200, 0)

    def test_rejects_text_samples(self, sample_factory):
        sample = Sample(metadata=sample_factory(1, text_tokens=10, image_tokens=0))
        with pytest.raises(TransformError):
            ImageDecode().apply(sample)

    def test_decode_is_two_orders_above_tokenize_per_token(self):
        decode = ImageDecode().estimate_latency(0, 1000)
        tokenize = TextTokenize().estimate_latency(1000, 0)
        assert 30 < decode / tokenize < 300


class TestImageCropAndResize:
    def test_crop_limits_patch_count(self, sample_factory):
        sample = Sample(metadata=sample_factory(1, image_tokens=50_000))
        ImageCrop().apply(sample)
        assert sample.metadata.image_tokens == ImageCrop.max_patches == 16384

    def test_crop_keeps_small_images(self, sample_factory):
        sample = Sample(metadata=sample_factory(1, image_tokens=100))
        ImageCrop().apply(sample)
        assert sample.metadata.image_tokens == 100


class TestVideoAndAudio:
    def test_keyframe_extraction(self, sample_factory):
        metadata = sample_factory(1, image_tokens=512, modality=Modality.VIDEO)
        metadata = metadata.with_updates(video_frames=4)
        sample = Sample(metadata=metadata)
        latency = VideoKeyframeExtract().apply(sample)
        assert sample.payload["keyframes"] == [0, 1, 2, 3]
        assert latency > 0

    def test_audio_featurize_is_costliest_per_token(self):
        audio = AudioFeaturize().estimate_latency(100, 0)
        image = ImageDecode().estimate_latency(0, 100)
        text = TextTokenize().estimate_latency(100, 0)
        assert audio > image > text

    def test_audio_rejected_on_image_samples(self, sample_factory):
        sample = Sample(metadata=sample_factory(1, image_tokens=10))
        assert not AudioFeaturize().applies_to(sample)


class TestDefaultChains:
    @pytest.mark.parametrize(
        "modality,expected_first",
        [
            (Modality.TEXT, "text_tokenize"),
            (Modality.IMAGE, "text_tokenize"),
            (Modality.VIDEO, "text_tokenize"),
            (Modality.AUDIO, "audio_featurize"),
        ],
    )
    def test_chain_heads(self, modality, expected_first):
        chain = default_transforms_for(modality)
        assert chain[0].name == expected_first

    def test_image_chain_includes_decode_and_crop(self):
        names = [t.name for t in default_transforms_for(Modality.IMAGE)]
        assert "image_decode" in names
        assert "image_crop" in names

    def test_video_chain_includes_keyframes(self):
        names = [t.name for t in default_transforms_for(Modality.VIDEO)]
        assert "video_keyframe_extract" in names
