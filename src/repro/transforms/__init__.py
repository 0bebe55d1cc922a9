"""Transformation pipeline: sample-, microbatch- and parallelism-level stages.

Mirrors the "LFM Data Preprocessing Pipeline" of Fig. 1: sample
transformations (tokenize, decode, crop, ...), microbatch transformations
(batching, packing, padding, RoPE) and parallelism transformations (DP
sharding, CP slicing, TP broadcast, PP metadata pruning).
"""

from repro.transforms.sample import (
    SampleTransform,
    TextTokenize,
    ImageDecode,
    ImageCrop,
    VideoKeyframeExtract,
    AudioFeaturize,
    default_transforms_for,
)
from repro.transforms.microbatch import (
    Microbatch,
    CollatedMicrobatch,
    PackingCollator,
    PaddingCollator,
    apply_rope_positions,
    batch_samples,
)
from repro.transforms.parallelism import (
    ParallelSlice,
    context_parallel_slices,
    pipeline_stage_view,
    tensor_parallel_replicas,
)
from repro.transforms.pipeline import TransformPipeline

__all__ = [
    "SampleTransform",
    "TextTokenize",
    "ImageDecode",
    "ImageCrop",
    "VideoKeyframeExtract",
    "AudioFeaturize",
    "default_transforms_for",
    "Microbatch",
    "CollatedMicrobatch",
    "PackingCollator",
    "PaddingCollator",
    "apply_rope_positions",
    "batch_samples",
    "ParallelSlice",
    "context_parallel_slices",
    "pipeline_stage_view",
    "tensor_parallel_replicas",
    "TransformPipeline",
]
