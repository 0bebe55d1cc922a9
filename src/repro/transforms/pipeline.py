"""Composable transformation pipelines.

A :class:`TransformPipeline` applies an ordered list of sample transforms to a
sample, accumulating simulated latency and tracking decoded payload bytes.
Every stage runs on the Source Loader, so what ships downstream is the
decoded sample.  The paper's transformation reordering (Sec. 6.2), which
moves decoding past the loader boundary, exists only as the analytical
``transformation_reordering`` flag of :mod:`repro.baselines` (Fig. 12).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.samples import MetadataColumns, Modality, Sample, SampleMetadata
from repro.errors import TransformError
from repro.transforms.sample import SampleTransform, default_transforms_for


@dataclass
class TransformResult:
    """Outcome of running a pipeline over one sample."""

    sample: Sample
    latency_s: float
    transferred_bytes: int


class TransformPipeline:
    """An ordered chain of :class:`SampleTransform` stages.

    Stages whose modality filter does not match a sample are skipped.
    """

    def __init__(self, transforms: list[SampleTransform]) -> None:
        if not transforms:
            raise TransformError("a pipeline needs at least one transform")
        self._transforms = list(transforms)

    @classmethod
    def for_modality(cls, modality: Modality) -> "TransformPipeline":
        """Build the default pipeline for a modality (Fig. 1's sample stage)."""
        return cls(default_transforms_for(modality))

    def run(self, sample: Sample) -> TransformResult:
        """Apply every matching stage to ``sample`` in place."""
        latency = 0.0
        for transform in self._transforms:
            if transform.applies_to(sample):
                latency += transform.apply(sample)
        metadata = sample.metadata
        return TransformResult(
            sample=sample,
            latency_s=latency,
            transferred_bytes=max(metadata.decoded_bytes, metadata.raw_bytes, 1),
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
        for transform in self._transforms:
            if transform.modalities and not modalities.issubset(transform.modalities):
                continue
            stage, image_tokens = transform.apply_columns(
                chunk.text_tokens, image_tokens, chunk.video_frames
            )
            latencies = [total + latency for total, latency in zip(latencies, stage)]
        return latencies, [
            max(decoded, raw, 1) for decoded, raw in zip(chunk.decoded_bytes, chunk.raw_bytes)
        ]

    def estimate_latency(self, metadata: SampleMetadata) -> float:
        """Latency estimate from metadata only (no payload mutation)."""
        total = 0.0
        for transform in self._transforms:
            if transform.modalities and metadata.modality not in transform.modalities:
                continue
            total += transform.estimate_latency(metadata.text_tokens, metadata.image_tokens)
        return total
