"""Unit tests for sample-level transformations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.samples import Modality
from repro.transforms.pipeline import TransformPipeline
from repro.transforms.sample import (
    AudioFeaturize,
    ImageCrop,
    ImageDecode,
    TextTokenize,
    VideoKeyframeExtract,
    default_transforms_for,
)


def cost(transform, text_tokens=0, image_tokens=0, video_frames=0):
    """One sample's ``(latency_s, image_tokens after)`` from ``transform``."""
    return transform.apply_columns(text_tokens, image_tokens, video_frames)


class TestTextTokenize:
    def test_costs_two_microseconds_per_token(self):
        assert cost(TextTokenize(), text_tokens=50, image_tokens=7) == (50 * 2.0e-6, 7)

    def test_columns_equal_the_one_row_form(self):
        transform = TextTokenize()
        text = np.array([0, 1, 128, 9000], dtype=np.int64)
        latency, image = transform.apply_columns(text, np.zeros(4, dtype=np.int64), text)
        assert latency.tolist() == [cost(transform, text_tokens=int(t))[0] for t in text]
        assert image.tolist() == [0, 0, 0, 0]


class TestImageDecode:
    def test_costs_per_patch_and_keeps_the_patches(self):
        latency, image = cost(ImageDecode(), text_tokens=10, image_tokens=200)
        assert latency == pytest.approx(200 * 1.5e-4)
        assert image == 200

    def test_skips_text_samples(self, sample_factory):
        text = sample_factory(1, text_tokens=10, image_tokens=200, modality=Modality.TEXT)
        assert TransformPipeline([ImageDecode()]).run(text)[0] == 0.0

    def test_decode_is_two_orders_above_tokenize_per_token(self):
        decode, _ = cost(ImageDecode(), image_tokens=1000)
        tokenize, _ = cost(TextTokenize(), text_tokens=1000)
        assert 30 < decode / tokenize < 300


class TestImageCropAndResize:
    def test_crop_limits_patch_count(self):
        latency, image = cost(ImageCrop(), image_tokens=50_000)
        assert image == ImageCrop.max_patches == 16384
        # Charged by the patches that arrive, not the ones the crop keeps.
        assert latency == pytest.approx(50_000 * 1.2e-5)

    def test_crop_keeps_small_images(self):
        assert cost(ImageCrop(), image_tokens=100)[1] == 100

    def test_crop_caps_a_column_row_by_row(self):
        _, image = ImageCrop().apply_columns(0, np.array([100, 16384, 16385, 50_000]), 0)
        assert image.tolist() == [100, 16384, 16384, 16384]


class TestVideoAndAudio:
    def test_keyframe_extraction_costs_per_frame(self):
        latency, image = cost(VideoKeyframeExtract(), image_tokens=512, video_frames=4)
        assert latency == pytest.approx(4 * 0.004 + 0.002)
        assert image == 512

    def test_keyframes_count_frames_not_patches(self):
        few, _ = cost(VideoKeyframeExtract(), image_tokens=100_000, video_frames=1)
        many, _ = cost(VideoKeyframeExtract(), image_tokens=0, video_frames=100)
        assert few == pytest.approx(0.006) and many == pytest.approx(0.402)

    def test_audio_featurize_is_costliest_per_token(self):
        audio, _ = cost(AudioFeaturize(), text_tokens=100)
        image, _ = cost(ImageDecode(), image_tokens=100)
        text, _ = cost(TextTokenize(), text_tokens=100)
        assert audio == pytest.approx(100 * 6e-4)
        assert audio > image > text

    def test_audio_skipped_on_image_samples(self, sample_factory):
        image = sample_factory(1, text_tokens=30, image_tokens=10)
        assert TransformPipeline([AudioFeaturize()]).run(image)[0] == 0.0


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
