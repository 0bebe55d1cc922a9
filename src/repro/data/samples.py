"""Sample and metadata types flowing through the preprocessing pipeline.

A :class:`Sample` carries a (synthetic) raw payload plus lightweight
:class:`SampleMetadata`.  The orchestration layer (DGraph, Planner) only ever
moves metadata around; payload bytes stay inside Source Loaders and Data
Constructors, mirroring the paper's "lightweight metadata" plan generation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields, replace


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

    def __reduce__(self) -> tuple:
        # Pickled as one constructor call: the per-field ``__getstate__``
        # dataclasses generate for ``slots=True`` is several times slower, and
        # the loader snapshots a ``run`` entry embeds carry buffered records.
        return SampleMetadata, (
            self.sample_id, self.source, self.modality, self.text_tokens, self.image_tokens,
            self.video_frames, self.audio_seconds, self.raw_bytes, self.decoded_bytes, self.extra,
        )


@dataclass
class MetadataColumns:
    """A chunk of sample metadata, column by column.

    One list per stored field, named as in :class:`SampleMetadata` and the
    columnar files — what the sample transformations charge a sample by —
    plus ``records``, the same rows as the :class:`SampleMetadata` objects
    the Planner's buffer mirrors carry.
    """

    records: list[SampleMetadata]
    sample_id: list[int]
    modality: list[Modality]
    text_tokens: list[int]
    image_tokens: list[int]
    video_frames: list[int]
    audio_seconds: list[float]
    raw_bytes: list[int]
    decoded_bytes: list[int]

    @classmethod
    def from_records(cls, records: list[SampleMetadata]) -> "MetadataColumns":
        names = [column.name for column in fields(cls)][1:]
        return cls(records, *([getattr(record, name) for record in records] for name in names))

    @classmethod
    def join(cls, parts: list["MetadataColumns"]) -> "MetadataColumns":
        """Chunks read one after another, as one chunk."""
        if len(parts) == 1:
            return parts[0]
        names = [column.name for column in fields(cls)]
        return cls(*([row for part in parts for row in getattr(part, name)] for name in names))

    def __len__(self) -> int:
        return len(self.records)


@dataclass
class Sample:
    """A training sample: raw/transformed payload plus metadata.

    The ``payload`` dict holds synthetic stand-ins for the real artefacts
    (token id arrays, decoded pixel tensors); transformations mutate it and
    update ``metadata`` and ``state`` accordingly.
    """

    metadata: SampleMetadata
    payload: dict[str, object] = field(default_factory=dict)
    state: str = "raw"
    applied_transforms: list[str] = field(default_factory=list)

    @property
    def sample_id(self) -> int:
        return self.metadata.sample_id

    @property
    def source(self) -> str:
        return self.metadata.source

    def mark_transformed(self, transform_name: str, new_state: str | None = None) -> None:
        """Record that ``transform_name`` has been applied."""
        self.applied_transforms.append(transform_name)
        if new_state is not None:
            self.state = new_state

    def payload_bytes(self) -> int:
        """Approximate live bytes held by the payload."""
        total = 0
        for value in self.payload.values():
            if isinstance(value, (bytes, bytearray)):
                total += len(value)
            elif isinstance(value, (list, tuple)):
                total += 8 * len(value)
            elif hasattr(value, "nbytes"):
                total += int(value.nbytes)
            else:
                total += 64
        return total


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
