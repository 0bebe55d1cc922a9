"""Unit tests for synthetic dataset generation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.samples import Modality
from repro.data.synthetic import (
    ROWS_PER_GROUP,
    build_source_catalog,
    coyo700m_like_spec,
    generate_samples,
    navit_like_spec,
)
from repro.errors import ConfigurationError
from repro.storage.columnar import ColumnarFile


class TestSpecs:
    def test_coyo_spec_shape(self):
        spec = coyo700m_like_spec(num_sources=5, samples_per_source=100)
        assert len(spec.sources) == 5
        assert spec.total_samples() == 500
        assert all(s.modality is Modality.IMAGE for s in spec.sources)

    def test_navit_spec_is_heterogeneous(self):
        spec = navit_like_spec(num_sources=100, samples_per_source=8, seed=0)
        modalities = {s.modality for s in spec.sources}
        assert Modality.IMAGE in modalities
        assert Modality.TEXT in modalities
        costs = [s.cost_multiplier for s in spec.sources]
        assert max(costs) / min(costs) > 5.0

    def test_navit_spec_deterministic(self):
        a = navit_like_spec(num_sources=20, seed=3)
        b = navit_like_spec(num_sources=20, seed=3)
        assert [s.modality for s in a.sources] == [s.modality for s in b.sources]


class TestGenerateSamples:
    def test_records_have_expected_columns(self):
        spec = coyo700m_like_spec(num_sources=1, samples_per_source=10)
        records = generate_samples(spec.sources[0], seed=0)
        assert len(records) == 10
        assert {"sample_id", "modality", "text_tokens", "image_tokens"} <= set(records[0])

    def test_id_offset_applied(self):
        spec = coyo700m_like_spec(num_sources=1, samples_per_source=5)
        records = generate_samples(spec.sources[0], seed=0, id_offset=100)
        assert [r["sample_id"] for r in records] == [100, 101, 102, 103, 104]

    def test_text_sources_have_no_image_tokens(self):
        spec = navit_like_spec(num_sources=40, samples_per_source=4, seed=1)
        text_specs = [s for s in spec.sources if s.modality is Modality.TEXT]
        assert text_specs, "expected at least one text source in 40 draws"
        records = generate_samples(text_specs[0], seed=1)
        assert all(r["image_tokens"] == 0 for r in records)

    def test_decoded_bytes_amplified_for_images(self):
        spec = coyo700m_like_spec(num_sources=1, samples_per_source=20)
        records = generate_samples(spec.sources[0], seed=0)
        assert all(r["decoded_bytes"] >= r["raw_bytes"] for r in records)
        assert any(r["decoded_bytes"] > 5 * r["raw_bytes"] for r in records)

    def test_generation_deterministic(self):
        spec = coyo700m_like_spec(num_sources=1, samples_per_source=50)
        a = generate_samples(spec.sources[0], seed=9)
        b = generate_samples(spec.sources[0], seed=9)
        assert a == b


class TestBuildCatalog:
    def test_catalog_matches_spec(self, filesystem):
        spec = coyo700m_like_spec(num_sources=3, samples_per_source=30)
        catalog = build_source_catalog(spec, filesystem)
        assert len(catalog) == 3
        assert catalog.total_samples() == 90

    def test_files_written_to_filesystem(self, filesystem):
        spec = coyo700m_like_spec(num_sources=2, samples_per_source=10)
        catalog = build_source_catalog(spec, filesystem)
        for source in catalog:
            for path in source.paths:
                assert isinstance(filesystem.read(path), ColumnarFile)

    def test_row_groups_hold_rows_per_group_rows(self, filesystem):
        spec = coyo700m_like_spec(num_sources=1, samples_per_source=2 * ROWS_PER_GROUP + 76)
        (source,) = build_source_catalog(spec, filesystem)
        file = filesystem.read(source.paths[0])
        assert [group.row_count for group in file.row_groups] == [ROWS_PER_GROUP] * 2 + [76]

    def test_sample_ids_globally_unique(self, filesystem):
        spec = coyo700m_like_spec(num_sources=3, samples_per_source=20)
        catalog = build_source_catalog(spec, filesystem)
        seen = set()
        for source in catalog:
            file = filesystem.read(source.paths[0])
            for row in range(file.total_rows):
                sid = file.read_row(row)["sample_id"]
                assert sid not in seen
                seen.add(sid)

    def test_empty_spec_rejected(self, filesystem):
        spec = coyo700m_like_spec(num_sources=1, samples_per_source=1)
        empty = type(spec)(group_name="x", sources=(), seed=0)
        with pytest.raises(ConfigurationError):
            build_source_catalog(empty, filesystem)

    def test_catalog_averages_reflect_records(self, filesystem):
        spec = coyo700m_like_spec(num_sources=1, samples_per_source=200)
        catalog = build_source_catalog(spec, filesystem)
        source = catalog.sources()[0]
        records = generate_samples(spec.sources[0], seed=spec.seed)
        assert source.avg_text_tokens == pytest.approx(
            float(np.mean([r["text_tokens"] for r in records]))
        )

    def test_navit_like_catalog_size(self, filesystem):
        catalog = build_source_catalog(
            navit_like_spec(num_sources=4, samples_per_source=16), filesystem
        )
        assert len(catalog) == 4
        assert catalog.total_samples() == 64
