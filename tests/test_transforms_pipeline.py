"""Unit tests for composable transform pipelines."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.samples import Modality, SampleMetadata
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
        latency, _ = pipeline.run(sample_factory(1, text_tokens=20, image_tokens=100))
        # tokenize 20 x 2e-6 + decode 100 x 1.5e-4 + crop 100 x 1.2e-5
        assert latency == pytest.approx(4e-5 + 0.015 + 0.0012)

    def test_modality_filter_skips_stages(self, sample_factory):
        pipeline = TransformPipeline([TextTokenize(), ImageDecode()])
        text = sample_factory(1, text_tokens=20, image_tokens=100, modality=Modality.TEXT)
        assert pipeline.run(text)[0] == pytest.approx(4e-5)

    def test_run_ships_decoded_bytes(self, sample_factory):
        metadata = sample_factory(1, image_tokens=200)
        _, transferred = TransformPipeline.for_modality(Modality.IMAGE).run(metadata)
        assert transferred == max(metadata.decoded_bytes, metadata.raw_bytes, 1)


# -- golden per-row costs -----------------------------------------------------------------

class _SmallCrop(ImageCrop):
    max_patches = 512


#: The four modality defaults plus a chain whose crop feeds a later stage.
CHAINS = {modality.value: default_transforms_for(modality) for modality in Modality}
CHAINS["small_crop"] = [TextTokenize(), _SmallCrop(), ImageDecode()]
PIPELINE_STAGES = list(CHAINS.values())

#: ``(modality, text_tokens, image_tokens, video_frames, raw_bytes, decoded_bytes)``:
#: every modality, and an image and a video past ``ImageCrop.max_patches``.
PINNED_ROWS = [
    ("text", 733, 0, 0, 2932, 2932),
    ("image", 41, 600, 0, 120_000, 470_400),
    ("image", 17, 20_000, 0, 3_000_000, 15_680_000),
    ("video", 64, 4_096, 12, 9_000_000, 3_211_264),
    ("video", 5, 16_385, 300, 40_000_000, 0),
    ("audio", 1_500, 0, 0, 48_000, 6_000),
]

#: Per chain, each pinned row's ``(latency_s, transferred_bytes)``, recorded
#: from the payload-building per-sample transforms this fold replaced.
PINNED_COSTS = {
    "text": [
        (0.0014659999999999999, 2932), (8.2e-05, 470400), (3.4e-05, 15680000),
        (0.000128, 9000000), (9.999999999999999e-06, 40000000), (0.003, 48000),
    ],
    "image": [
        (0.0014659999999999999, 2932), (0.097282, 470400), (3.2400339999999996, 15680000),
        (0.6636799999999999, 9000000), (2.6543799999999997, 40000000), (0.003, 48000),
    ],
    "video": [
        (0.0014659999999999999, 2932), (0.097282, 470400), (3.2400339999999996, 15680000),
        (0.71368, 9000000), (3.8563799999999997, 40000000), (0.003, 48000),
    ],
    "audio": [
        (0.0, 2932), (0.0, 470400), (0.0, 15680000),
        (0.0, 9000000), (0.0, 40000000), (0.8999999999999999, 48000),
    ],
    "small_crop": [
        (0.0014659999999999999, 2932), (0.08408199999999999, 470400), (0.316834, 15680000),
        (0.12608, 9000000), (0.27343, 40000000), (0.003, 48000),
    ],
}


def pinned_metadata():
    return [
        SampleMetadata(
            sample_id=index, source="s", modality=Modality(modality), text_tokens=text,
            image_tokens=image, video_frames=frames, raw_bytes=raw, decoded_bytes=decoded,
        )
        for index, (modality, text, image, frames, raw, decoded) in enumerate(PINNED_ROWS)
    ]


@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_run_and_run_columns_equal_the_pinned_per_sample_costs(chain):
    pipeline = TransformPipeline(CHAINS[chain])
    rows = pinned_metadata()
    latencies, transferred = pipeline.run_columns(columns_of(rows))
    assert [pipeline.run(row) for row in rows] == PINNED_COSTS[chain]
    assert list(zip(latencies.tolist(), transferred.tolist())) == PINNED_COSTS[chain]


# -- the column evaluator against the one-row fold ---------------------------------------

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
    latencies, transferred = pipeline.run_columns(columns_of(rows))
    assert latencies.dtype == np.float64 and transferred.dtype == np.int64
    assert list(zip(latencies.tolist(), transferred.tolist())) == [pipeline.run(row) for row in rows]


def columns_of(rows):
    """``rows`` as the typed metadata columns a row group holds."""
    columns = {
        name: np.array([getattr(row, name) for row in rows], dtype=np.int64)
        for name in ("text_tokens", "image_tokens", "video_frames", "raw_bytes", "decoded_bytes")
    }
    columns["modality"] = np.array([row.modality.value for row in rows], dtype=str)
    return columns
