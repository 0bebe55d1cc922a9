"""Multisource dataset substrate: samples, sources, synthetic generators, mixtures."""

from repro.data.samples import SampleMetadata, Modality
from repro.data.sources import DataSource, SourceCatalog
from repro.data.mixture import MixtureSchedule, MixturePhase
from repro.data.synthetic import (
    SyntheticDatasetSpec,
    coyo700m_like_spec,
    navit_like_spec,
    build_source_catalog,
    generate_samples,
)

__all__ = [
    "SampleMetadata",
    "Modality",
    "DataSource",
    "SourceCatalog",
    "MixtureSchedule",
    "MixturePhase",
    "SyntheticDatasetSpec",
    "coyo700m_like_spec",
    "navit_like_spec",
    "build_source_catalog",
    "generate_samples",
]
