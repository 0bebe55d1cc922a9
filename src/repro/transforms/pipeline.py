"""Composable transformation pipelines.

A :class:`TransformPipeline` applies an ordered list of sample transforms to a
sample, accumulating simulated latency and tracking decoded payload bytes.
Pipelines support *transformation reordering* (Sec. 6.2): heavyweight
transforms such as image decoding can be deferred past the loader boundary so
they run on the Data Constructor instead, reducing the bytes shipped between
actors at the cost of constructor-side CPU time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.samples import MetadataColumns, Modality, Sample, SampleMetadata
from repro.errors import TransformError
from repro.transforms.sample import SampleTransform, default_transforms_for


#: Stages that inflate a sample to its decoded size; deferring one ships raw bytes.
_DECODE_STAGES = ("image_decode", "audio_featurize")


@dataclass
class TransformResult:
    """Outcome of running a pipeline over one sample."""

    sample: Sample
    latency_s: float
    transferred_bytes: int
    deferred_transforms: list[str] = field(default_factory=list)


class TransformPipeline:
    """An ordered chain of :class:`SampleTransform` stages.

    Parameters
    ----------
    transforms:
        Stages applied in order; stages whose modality filter does not match a
        sample are skipped.
    deferred:
        Names of transforms to *defer* (not run here); the caller records them
        so the downstream component (Data Constructor) can run them later.
    """

    def __init__(
        self,
        transforms: list[SampleTransform],
        deferred: set[str] | None = None,
    ) -> None:
        if not transforms:
            raise TransformError("a pipeline needs at least one transform")
        self._transforms = list(transforms)
        self._deferred = set(deferred or ())
        unknown = self._deferred - {t.name for t in self._transforms}
        if unknown:
            raise TransformError(f"cannot defer unknown transforms: {sorted(unknown)}")

    @classmethod
    def for_modality(cls, modality: Modality, deferred: set[str] | None = None) -> "TransformPipeline":
        """Build the default pipeline for a modality (Fig. 1's sample stage)."""
        return cls(default_transforms_for(modality), deferred=deferred)

    @property
    def deferred_names(self) -> list[str]:
        return sorted(self._deferred)

    def run(self, sample: Sample) -> TransformResult:
        """Apply the non-deferred stages to ``sample`` in place."""
        latency = 0.0
        deferred: list[str] = []
        for transform in self._transforms:
            if not transform.applies_to(sample):
                continue
            if transform.name in self._deferred:
                deferred.append(transform.name)
                continue
            latency += transform.apply(sample)
        transferred = self._transfer_bytes(sample.metadata, deferred)
        return TransformResult(
            sample=sample,
            latency_s=latency,
            transferred_bytes=transferred,
            deferred_transforms=deferred,
        )

    def run_columns(self, chunk: MetadataColumns) -> tuple[list[float], list[int]]:
        """Metadata-only :meth:`run` over a chunk: no sample object, no payload.

        Returns, per row, exactly the ``latency_s`` and ``transferred_bytes``
        :meth:`run` returns for a sample with that metadata — what the Source
        Loader charges and stages — evaluated a column at a time.
        """
        modalities = set(chunk.modality)
        if len(modalities) > 1:
            # Rows of different modalities run different stages: evaluate
            # each modality's rows on their own.
            latencies = [0.0] * len(chunk)
            transferred = [0] * len(chunk)
            for modality in modalities:
                rows = [row for row, other in enumerate(chunk.modality) if other == modality]
                part = MetadataColumns.from_records([chunk.records[row] for row in rows])
                for row, latency, size in zip(rows, *self.run_columns(part)):
                    latencies[row] = latency
                    transferred[row] = size
            return latencies, transferred
        latencies = [0.0] * len(chunk)
        image_tokens = chunk.image_tokens
        decode_deferred = False
        for transform in self._transforms:
            if transform.modalities and not modalities.issubset(transform.modalities):
                continue
            if transform.name in self._deferred:
                decode_deferred |= transform.name in _DECODE_STAGES
                continue
            stage, image_tokens = transform.apply_columns(
                chunk.text_tokens, image_tokens, chunk.video_frames
            )
            latencies = [total + latency for total, latency in zip(latencies, stage)]
        if decode_deferred:
            return latencies, [max(raw, 1) for raw in chunk.raw_bytes]
        return latencies, [
            max(decoded, raw, 1) for decoded, raw in zip(chunk.decoded_bytes, chunk.raw_bytes)
        ]

    def estimate_latency(self, metadata: SampleMetadata, include_deferred: bool = True) -> float:
        """Latency estimate from metadata only (no payload mutation)."""
        total = 0.0
        for transform in self._transforms:
            if transform.modalities and metadata.modality not in transform.modalities:
                continue
            if not include_deferred and transform.name in self._deferred:
                continue
            total += transform.estimate_latency(metadata.text_tokens, metadata.image_tokens)
        return total

    def _transfer_bytes(self, metadata: SampleMetadata, deferred: list[str]) -> int:
        """Bytes shipped downstream after this pipeline ran.

        If image decoding was deferred, the compressed raw bytes travel;
        otherwise the (much larger) decoded bytes do — which is exactly the
        trade-off "transformation reordering" exploits.
        """
        decode_deferred = any(name in _DECODE_STAGES for name in deferred)
        if decode_deferred:
            return max(metadata.raw_bytes, 1)
        return max(metadata.decoded_bytes, metadata.raw_bytes, 1)
