"""Sample-level transformations with calibrated cost models.

Each transform consumes a :class:`repro.data.samples.Sample`, mutates its
payload/metadata and returns the simulated CPU latency it took.  Latencies are
derived from per-token costs calibrated against the relative magnitudes the
paper quotes (image decoding ~2 orders of magnitude above tokenization per
output token, audio ~4x image, video keyframe extraction heavier still).
"""

from __future__ import annotations

import numpy as np

from repro.data.samples import Modality, Sample
from repro.errors import TransformError

#: Seconds of CPU time per text token for tokenization (calibration anchor).
TOKENIZE_SECONDS_PER_TOKEN = 2.0e-6


class SampleTransform:
    """Base class for sample-level transformations."""

    #: Human-readable name recorded on the sample after application.
    name = "sample_transform"
    #: Modalities this transform applies to (empty means all).
    modalities: tuple[Modality, ...] = ()

    def applies_to(self, sample: Sample) -> bool:
        return not self.modalities or sample.metadata.modality in self.modalities

    def apply(self, sample: Sample) -> float:
        """Apply in place and return the simulated latency in seconds."""
        raise NotImplementedError

    def estimate_latency(self, text_tokens: int, image_tokens: int) -> float:
        """Latency estimate from token counts only (used by cost models)."""
        raise NotImplementedError

    def apply_columns(
        self, text_tokens: np.ndarray, image_tokens: np.ndarray, video_frames: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Metadata-only form of :meth:`apply` over ``int64`` columns of samples.

        Returns, per row, the latency :meth:`apply` returns for a sample with
        these counts (elementwise ``float64`` arithmetic rounds exactly as the
        scalar form does), and the ``image_tokens`` column it leaves behind
        (the given array when the stage does not rescale).  No payload is built.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class TextTokenize(SampleTransform):
    """Convert raw text into token ids."""

    seconds_per_token = TOKENIZE_SECONDS_PER_TOKEN
    name = "text_tokenize"
    modalities = ()

    def apply(self, sample: Sample) -> float:
        tokens = sample.metadata.text_tokens
        sample.payload["text_token_ids"] = np.arange(tokens, dtype=np.int32)
        sample.mark_transformed(self.name, new_state="tokenized")
        return self.estimate_latency(tokens, 0)

    def estimate_latency(self, text_tokens: int, image_tokens: int) -> float:
        return self.seconds_per_token * text_tokens

    def apply_columns(self, text_tokens, image_tokens, video_frames):
        return self.seconds_per_token * text_tokens, image_tokens


class ImageDecode(SampleTransform):
    """Decode a compressed image into a normalized patch tensor (JPEG -> RGB)."""

    seconds_per_patch = TOKENIZE_SECONDS_PER_TOKEN * 75.0
    bytes_per_patch = 14 * 14 * 3 * 4
    name = "image_decode"
    modalities = (Modality.IMAGE, Modality.VIDEO)

    def apply(self, sample: Sample) -> float:
        if not self.applies_to(sample):
            raise TransformError(f"{self.name} cannot decode a {sample.metadata.modality} sample")
        patches = sample.metadata.image_tokens
        sample.payload["image_patches"] = np.zeros(
            (max(1, patches), self.bytes_per_patch // 4), dtype=np.float32
        )
        sample.mark_transformed(self.name, new_state="decoded")
        return self.estimate_latency(0, patches)

    def estimate_latency(self, text_tokens: int, image_tokens: int) -> float:
        return self.seconds_per_patch * image_tokens

    def apply_columns(self, text_tokens, image_tokens, video_frames):
        return self.seconds_per_patch * image_tokens, image_tokens


class ImageCrop(SampleTransform):
    """Crop/resize an image to a bounded number of patches."""

    max_patches = 16384
    seconds_per_patch = TOKENIZE_SECONDS_PER_TOKEN * 6.0
    name = "image_crop"
    modalities = (Modality.IMAGE, Modality.VIDEO)

    def apply(self, sample: Sample) -> float:
        patches = sample.metadata.image_tokens
        latency = self.estimate_latency(0, patches)
        if patches > self.max_patches:
            sample.metadata = sample.metadata.with_updates(image_tokens=self.max_patches)
            if "image_patches" in sample.payload:
                sample.payload["image_patches"] = sample.payload["image_patches"][: self.max_patches]
        sample.mark_transformed(self.name)
        return latency

    def estimate_latency(self, text_tokens: int, image_tokens: int) -> float:
        return self.seconds_per_patch * image_tokens

    def apply_columns(self, text_tokens, image_tokens, video_frames):
        # Charged by the patches that arrive, not by the patches the crop keeps.
        return self.seconds_per_patch * image_tokens, np.minimum(image_tokens, self.max_patches)


class VideoKeyframeExtract(SampleTransform):
    """Extract keyframes from a video container before per-frame decoding."""

    seconds_per_frame = 0.004
    name = "video_keyframe_extract"
    modalities = (Modality.VIDEO,)

    def apply(self, sample: Sample) -> float:
        frames = sample.metadata.video_frames
        sample.payload["keyframes"] = list(range(frames))
        sample.mark_transformed(self.name)
        return self.seconds_per_frame * frames + 0.002

    def estimate_latency(self, text_tokens: int, image_tokens: int) -> float:
        return self.seconds_per_frame * (image_tokens // 256) + 0.002

    def apply_columns(self, text_tokens, image_tokens, video_frames):
        # By the container's frame count, like ``apply`` (``estimate_latency``
        # only has token counts and guesses frames from them).
        return self.seconds_per_frame * video_frames + 0.002, image_tokens


class AudioFeaturize(SampleTransform):
    """Convert raw audio into feature frames (the costliest modality per token)."""

    seconds_per_token = TOKENIZE_SECONDS_PER_TOKEN * 300.0
    name = "audio_featurize"
    modalities = (Modality.AUDIO,)

    def apply(self, sample: Sample) -> float:
        tokens = sample.metadata.text_tokens
        sample.payload["audio_features"] = np.zeros((max(1, tokens), 80), dtype=np.float32)
        sample.mark_transformed(self.name, new_state="featurized")
        return self.estimate_latency(tokens, 0)

    def estimate_latency(self, text_tokens: int, image_tokens: int) -> float:
        return self.seconds_per_token * text_tokens

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
