"""Sample metadata flowing through the preprocessing pipeline.

A sample is described by lightweight :class:`SampleMetadata` only.  The
orchestration layer (DGraph, Planner) moves metadata around, and Source
Loaders cost transforms from it, mirroring the paper's "lightweight metadata"
plan generation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace


class Modality(str, enum.Enum):
    """Modalities recognised by the transformation and cost layers."""

    TEXT = "text"
    IMAGE = "image"
    VIDEO = "video"
    AUDIO = "audio"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True, slots=True)
class SampleMetadata:
    """Lightweight description of a sample used for planning and balancing.

    Attributes
    ----------
    sample_id:
        Globally unique id assigned at generation time.
    source:
        Name of the data source the sample belongs to.
    modality:
        Dominant modality of the sample (image-text pairs are ``IMAGE``).
    text_tokens:
        Number of text tokens after tokenization.
    image_tokens:
        Number of image patch tokens produced by the vision encoder.
    raw_bytes:
        Size of the raw (undecoded) payload in storage.
    decoded_bytes:
        Size of the payload after sample transformations (e.g. decoded RGB).
    """

    sample_id: int
    source: str
    modality: Modality
    text_tokens: int = 0
    image_tokens: int = 0
    video_frames: int = 0
    audio_seconds: float = 0.0
    raw_bytes: int = 0
    decoded_bytes: int = 0
    extra: tuple = ()

    @property
    def total_tokens(self) -> int:
        """Tokens contributed to the fused backbone sequence."""
        return self.text_tokens + self.image_tokens

    def with_updates(self, **changes: object) -> "SampleMetadata":
        """Return a copy with selected fields replaced."""
        return replace(self, **changes)


def metadata_from_record(record: dict[str, object], source: str) -> SampleMetadata:
    """Build :class:`SampleMetadata` from a columnar-file record."""
    return SampleMetadata(
        sample_id=int(record["sample_id"]),
        source=source,
        modality=Modality(str(record.get("modality", "text"))),
        text_tokens=int(record.get("text_tokens", 0)),
        image_tokens=int(record.get("image_tokens", 0)),
        video_frames=int(record.get("video_frames", 0)),
        audio_seconds=float(record.get("audio_seconds", 0.0)),
        raw_bytes=int(record.get("raw_bytes", 0)),
        decoded_bytes=int(record.get("decoded_bytes", 0)),
    )
