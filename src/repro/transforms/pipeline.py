"""Composable transformation pipelines.

A :class:`TransformPipeline` folds an ordered list of sample transforms over
sample metadata: each stage that applies to a sample's modality adds its
:meth:`~repro.transforms.sample.SampleTransform.apply_columns` latency, and
what ships downstream is the decoded sample's size.  Every stage runs on the
Source Loader.  The paper's transformation reordering (Sec. 6.2), which
moves decoding past the loader boundary, exists only as the analytical
``transformation_reordering`` flag of :mod:`repro.baselines` (Fig. 12).
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.data.samples import Modality, SampleMetadata
from repro.errors import TransformError
from repro.transforms.sample import SampleTransform, default_transforms_for


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

    def run(self, metadata: SampleMetadata) -> tuple[float, int]:
        """One sample's ``(latency_s, transferred_bytes)``: the one-row fold."""
        latency = 0.0
        image_tokens = metadata.image_tokens
        for transform in self._transforms:
            if transform.modalities and metadata.modality not in transform.modalities:
                continue
            stage, image_tokens = transform.apply_columns(
                metadata.text_tokens, image_tokens, metadata.video_frames
            )
            latency += stage
        return float(latency), max(metadata.decoded_bytes, metadata.raw_bytes, 1)

    def run_columns(self, columns: Mapping[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`run` over columns of samples.

        ``columns`` maps the :class:`SampleMetadata` field names ``modality``,
        ``text_tokens``, ``image_tokens``, ``video_frames``, ``raw_bytes`` and
        ``decoded_bytes`` to one array each.  Returns, per row, exactly the
        ``latency_s`` (``float64``) and ``transferred_bytes`` (``int64``)
        :meth:`run` returns for that metadata — what the Source Loader charges
        and stages.  A stage adds to a row's running total only where it
        applies to the row's modality, in stage order, so every total is the
        scalar ``((0.0 + stage1) + stage2) ...`` bit for bit.
        """
        modality = columns["modality"]
        text_tokens = columns["text_tokens"]
        video_frames = columns["video_frames"]
        image_tokens = columns["image_tokens"]
        latencies = np.zeros(len(modality))
        for transform in self._transforms:
            stage, image_after = transform.apply_columns(text_tokens, image_tokens, video_frames)
            if transform.modalities:
                rows = np.isin(modality, [member.value for member in transform.modalities])
                latencies = np.where(rows, latencies + stage, latencies)
                image_tokens = np.where(rows, image_after, image_tokens)
            else:
                latencies = latencies + stage
                image_tokens = image_after
        transferred = np.maximum(np.maximum(columns["decoded_bytes"], columns["raw_bytes"]), 1)
        return latencies, transferred
