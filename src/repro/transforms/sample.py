"""Sample-level transformations as calibrated, metadata-only cost rules.

Each transform states its cost once, in :meth:`SampleTransform.apply_columns`:
from a sample's token and frame counts it returns the simulated CPU latency the
stage takes and the image-token count it leaves behind.  No payload is built.
Latencies are derived from per-token costs calibrated against the relative
magnitudes the paper quotes (image decoding ~2 orders of magnitude above
tokenization per output token, audio ~4x image, video keyframe extraction
heavier still).
"""

from __future__ import annotations

import numpy as np

from repro.data.samples import Modality
from repro.errors import TransformError

#: Seconds of CPU time per text token for tokenization (calibration anchor).
TOKENIZE_SECONDS_PER_TOKEN = 2.0e-6


class SampleTransform:
    """Base class for sample-level transformations."""

    #: Human-readable stage name.
    name = "sample_transform"
    #: Modalities this transform applies to (empty means all).
    modalities: tuple[Modality, ...] = ()

    def apply_columns(self, text_tokens, image_tokens, video_frames):
        """The stage's cost over one sample's counts (ints) or ``int64`` columns.

        Returns the latency in seconds per row (``float64`` arithmetic, so a
        column rounds exactly as the one-row form does) and the
        ``image_tokens`` the stage leaves behind (the given value when it does
        not rescale).
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class TextTokenize(SampleTransform):
    """Convert raw text into token ids."""

    seconds_per_token = TOKENIZE_SECONDS_PER_TOKEN
    name = "text_tokenize"
    modalities = ()

    def apply_columns(self, text_tokens, image_tokens, video_frames):
        return self.seconds_per_token * text_tokens, image_tokens


class ImageDecode(SampleTransform):
    """Decode a compressed image into a normalized patch tensor (JPEG -> RGB)."""

    seconds_per_patch = TOKENIZE_SECONDS_PER_TOKEN * 75.0
    name = "image_decode"
    modalities = (Modality.IMAGE, Modality.VIDEO)

    def apply_columns(self, text_tokens, image_tokens, video_frames):
        return self.seconds_per_patch * image_tokens, image_tokens


class ImageCrop(SampleTransform):
    """Crop/resize an image to a bounded number of patches."""

    max_patches = 16384
    seconds_per_patch = TOKENIZE_SECONDS_PER_TOKEN * 6.0
    name = "image_crop"
    modalities = (Modality.IMAGE, Modality.VIDEO)

    def apply_columns(self, text_tokens, image_tokens, video_frames):
        # Charged by the patches that arrive, not by the patches the crop keeps.
        return self.seconds_per_patch * image_tokens, np.minimum(image_tokens, self.max_patches)


class VideoKeyframeExtract(SampleTransform):
    """Extract keyframes from a video container before per-frame decoding."""

    seconds_per_frame = 0.004
    name = "video_keyframe_extract"
    modalities = (Modality.VIDEO,)

    def apply_columns(self, text_tokens, image_tokens, video_frames):
        return self.seconds_per_frame * video_frames + 0.002, image_tokens


class AudioFeaturize(SampleTransform):
    """Convert raw audio into feature frames (the costliest modality per token)."""

    seconds_per_token = TOKENIZE_SECONDS_PER_TOKEN * 300.0
    name = "audio_featurize"
    modalities = (Modality.AUDIO,)

    def apply_columns(self, text_tokens, image_tokens, video_frames):
        return self.seconds_per_token * text_tokens, image_tokens


def default_transforms_for(modality: Modality) -> list[SampleTransform]:
    """The default sample-transformation chain for a modality (Fig. 1 left)."""
    if modality is Modality.TEXT:
        return [TextTokenize()]
    if modality is Modality.IMAGE:
        return [TextTokenize(), ImageDecode(), ImageCrop()]
    if modality is Modality.VIDEO:
        return [TextTokenize(), VideoKeyframeExtract(), ImageDecode(), ImageCrop()]
    if modality is Modality.AUDIO:
        return [AudioFeaturize()]
    raise TransformError(f"no default transforms for modality {modality!r}")
