"""Transformation pipeline: sample-, microbatch- and parallelism-level stages.

Mirrors the "LFM Data Preprocessing Pipeline" of Fig. 1: sample
transformations (tokenize, decode, crop, ...), microbatch transformations
(packing, RoPE) and parallelism transformations (DP sharding, CP
slicing, TP broadcast, PP metadata pruning).
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
from repro.transforms.pipeline import TransformPipeline

__all__ = [
    "SampleTransform",
    "TextTokenize",
    "ImageDecode",
    "ImageCrop",
    "VideoKeyframeExtract",
    "AudioFeaturize",
    "default_transforms_for",
    "TransformPipeline",
]
