"""Synthetic multisource dataset generation.

The paper evaluates on two dataset groups: the open ``coyo700m`` image-text
corpus (5 sources) and a production ``navit_data`` group (306 sources).  The
generators here create synthetic stand-ins with the same structure: each
source is a set of columnar files whose records carry text-token and
image-token lengths drawn from the published Fig. 2 distributions, plus
per-source preprocessing-cost profiles spanning the heterogeneity range shown
in Fig. 5 (text tokenization vs image decoding vs video keyframes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.distributions import BucketedLengthDistribution, distribution_for
from repro.data.samples import Modality
from repro.data.sources import DataSource, SourceCatalog, SourcePreprocessingProfile
from repro.errors import ConfigurationError
from repro.storage.columnar import ColumnSchema, write_columnar_file
from repro.storage.filesystem import SimulatedFileSystem
from repro.utils.rng import derive_rng

#: Relative per-token preprocessing cost by modality (text tokenization == 1).
#: Sec. 1: audio needs ~4x more compute per output token than image decoding
#: and ~300x more than text tokenization.
MODALITY_COST_PER_TOKEN = {
    Modality.TEXT: 1.0,
    Modality.IMAGE: 75.0,
    Modality.VIDEO: 150.0,
    Modality.AUDIO: 300.0,
}

#: Raw storage bytes per token by modality (images/videos are stored encoded;
#: OCR-style decoding can inflate them up to 200x, captured by decoded_bytes).
MODALITY_RAW_BYTES_PER_TOKEN = {
    Modality.TEXT: 4,
    Modality.IMAGE: 48,
    Modality.VIDEO: 96,
    Modality.AUDIO: 64,
}

MODALITY_DECODE_AMPLIFICATION = {
    Modality.TEXT: 1.0,
    Modality.IMAGE: 12.0,
    Modality.VIDEO: 24.0,
    Modality.AUDIO: 6.0,
}


@dataclass(frozen=True)
class SyntheticSourceSpec:
    """Specification of one synthetic source."""

    name: str
    modality: Modality
    num_samples: int
    text_distribution: BucketedLengthDistribution | None = None
    image_distribution: BucketedLengthDistribution | None = None
    cost_multiplier: float = 1.0

    def __post_init__(self) -> None:
        if self.num_samples < 1:
            raise ConfigurationError(
                f"source {self.name!r} must have at least one sample, got {self.num_samples}"
            )


@dataclass(frozen=True)
class SyntheticDatasetSpec:
    """Specification of a dataset group (a set of sources)."""

    group_name: str
    sources: tuple[SyntheticSourceSpec, ...]
    seed: int = 0

    def total_samples(self) -> int:
        return sum(source.num_samples for source in self.sources)


def coyo700m_like_spec(
    num_sources: int = 5, samples_per_source: int = 2000, seed: int = 0
) -> SyntheticDatasetSpec:
    """A coyo700m-like group: image-text pairs with very short captions."""
    sources = []
    for index in range(num_sources):
        sources.append(
            SyntheticSourceSpec(
                name=f"coyo700m/src{index:03d}",
                modality=Modality.IMAGE,
                num_samples=samples_per_source,
                text_distribution=distribution_for("coyo700m", "text"),
                image_distribution=distribution_for("coyo700m", "image"),
                cost_multiplier=1.0 + 0.15 * index,
            )
        )
    return SyntheticDatasetSpec(group_name="coyo700m", sources=tuple(sources), seed=seed)


def navit_like_spec(
    num_sources: int = 306, samples_per_source: int = 64, seed: int = 0
) -> SyntheticDatasetSpec:
    """A navit_data-like group: hundreds of heterogeneous multimodal sources.

    The modality mix (~60% image-text, ~25% pure text, ~10% video, ~5% audio)
    and the two-orders-of-magnitude spread of per-sample preprocessing cost
    reproduce the heterogeneity shown in Fig. 5.
    """
    rng = derive_rng(seed, "navit_spec")
    sources = []
    modality_choices = [Modality.IMAGE, Modality.TEXT, Modality.VIDEO, Modality.AUDIO]
    modality_probs = [0.60, 0.25, 0.10, 0.05]
    for index in range(num_sources):
        modality = modality_choices[rng.choice(len(modality_choices), p=modality_probs)]
        text_dist = distribution_for("navit_data", "text")
        image_dist = distribution_for("navit_data", "image") if modality is not Modality.TEXT else None
        # Per-source cost multiplier is log-normal, spanning roughly 30x, which
        # yields the long-tailed latency CDF of Fig. 5b.
        cost_multiplier = float(np.exp(rng.normal(0.0, 0.9)))
        sources.append(
            SyntheticSourceSpec(
                name=f"navit_data/src{index:03d}",
                modality=modality,
                num_samples=samples_per_source,
                text_distribution=text_dist,
                image_distribution=image_dist,
                cost_multiplier=cost_multiplier,
            )
        )
    return SyntheticDatasetSpec(group_name="navit_data", sources=tuple(sources), seed=seed)


#: The dataset groups a job can name, each with the function that makes its spec.
DATASET_GROUPS = {"navit_data": navit_like_spec, "coyo700m": coyo700m_like_spec}


#: Rows per row group of every synthetic columnar file.
ROWS_PER_GROUP = 512

#: Columnar schema used for all synthetic sources (metadata-only records), with
#: each column's modelled compressed width per value.
SAMPLE_SCHEMA = (
    ColumnSchema("sample_id", 8),
    ColumnSchema("modality", 8),
    ColumnSchema("text_tokens", 4),
    ColumnSchema("image_tokens", 4),
    ColumnSchema("video_frames", 4),
    ColumnSchema("audio_seconds", 4),
    ColumnSchema("raw_bytes", 8),
    ColumnSchema("decoded_bytes", 8),
)


def generate_samples(
    spec: SyntheticSourceSpec, seed: int, id_offset: int = 0
) -> dict[str, np.ndarray]:
    """Generate one synthetic source's metadata, one array per :data:`SAMPLE_SCHEMA` column."""
    rng = derive_rng(seed, "samples", spec.name)
    count = spec.num_samples
    modality = spec.modality
    text_tokens = (
        spec.text_distribution.sample_lengths(count, rng).astype(np.int64)
        if spec.text_distribution is not None
        else np.zeros(count, dtype=np.int64)
    )
    image_tokens = (
        spec.image_distribution.sample_lengths(count, rng).astype(np.int64)
        if spec.image_distribution is not None and modality is not Modality.TEXT
        else np.zeros(count, dtype=np.int64)
    )
    raw_bytes = (
        text_tokens * MODALITY_RAW_BYTES_PER_TOKEN[Modality.TEXT]
        + image_tokens * MODALITY_RAW_BYTES_PER_TOKEN[modality]
    )
    return {
        "sample_id": np.arange(id_offset, id_offset + count, dtype=np.int64),
        "modality": np.full(count, modality.value),
        "text_tokens": text_tokens,
        "image_tokens": image_tokens,
        "video_frames": (
            image_tokens // 256 if modality is Modality.VIDEO else np.zeros(count, dtype=np.int64)
        ),
        "audio_seconds": text_tokens / 8.0 if modality is Modality.AUDIO else np.zeros(count),
        "raw_bytes": raw_bytes,
        "decoded_bytes": (raw_bytes * MODALITY_DECODE_AMPLIFICATION[modality]).astype(np.int64),
    }


def build_source_catalog(spec: SyntheticDatasetSpec, filesystem: SimulatedFileSystem) -> SourceCatalog:
    """Materialise a dataset spec into the filesystem and return its catalog.

    For every source the generated columns are written to one columnar file,
    ``/data/<source>/part-00000``, and a :class:`DataSource` entry is
    registered describing the source's modality, size and cost profile.
    """
    if not spec.sources:
        raise ConfigurationError("dataset spec has no sources")
    catalog = SourceCatalog()
    id_offset = 0
    for source_spec in spec.sources:
        columns = generate_samples(source_spec, spec.seed, id_offset=id_offset)
        id_offset += source_spec.num_samples
        path = f"/data/{source_spec.name}/part-00000"
        columnar = write_columnar_file(
            path, columns, SAMPLE_SCHEMA, ROWS_PER_GROUP, source_name=source_spec.name
        )
        filesystem.write(path, columnar, size_bytes=columnar.total_bytes(), kind="columnar")
        profile = SourcePreprocessingProfile(
            cost_per_token=MODALITY_COST_PER_TOKEN[source_spec.modality] * source_spec.cost_multiplier,
            fixed_cost_s=0.0005 * source_spec.cost_multiplier,
            memory_amplification=MODALITY_DECODE_AMPLIFICATION[source_spec.modality],
        )
        catalog.add(
            DataSource(
                name=source_spec.name,
                modality=source_spec.modality,
                paths=(path,),
                num_samples=source_spec.num_samples,
                dataset_group=spec.group_name,
                profile=profile,
                avg_text_tokens=float(np.mean(columns["text_tokens"])),
                avg_image_tokens=float(np.mean(columns["image_tokens"])),
                avg_raw_bytes=float(np.mean(columns["raw_bytes"])),
            )
        )
    return catalog
