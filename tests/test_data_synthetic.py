"""Unit tests for synthetic dataset generation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.samples import Modality
from repro.data.synthetic import (
    ROWS_PER_GROUP,
    SAMPLE_SCHEMA,
    SyntheticSourceSpec,
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


class FixedLengths:
    """A length distribution that draws the given lengths."""

    def __init__(self, *lengths: int) -> None:
        self.lengths = lengths

    def sample_lengths(self, count, rng):
        return np.array(self.lengths[:count])


def fixed_source(modality: Modality) -> SyntheticSourceSpec:
    return SyntheticSourceSpec(
        name="fixed",
        modality=modality,
        num_samples=2,
        text_distribution=FixedLengths(10, 600),
        image_distribution=FixedLengths(300, 1000),
    )


class TestGenerateSamples:
    def test_columns_follow_the_schema(self):
        spec = coyo700m_like_spec(num_sources=1, samples_per_source=10)
        columns = generate_samples(spec.sources[0], seed=0)
        assert list(columns) == [column.name for column in SAMPLE_SCHEMA]
        assert all(len(values) == 10 for values in columns.values())

    def test_id_offset_applied(self):
        spec = coyo700m_like_spec(num_sources=1, samples_per_source=5)
        columns = generate_samples(spec.sources[0], seed=0, id_offset=100)
        assert columns["sample_id"].tolist() == [100, 101, 102, 103, 104]

    def test_text_sources_have_no_image_tokens(self):
        spec = navit_like_spec(num_sources=40, samples_per_source=4, seed=1)
        text_specs = [s for s in spec.sources if s.modality is Modality.TEXT]
        assert text_specs, "expected at least one text source in 40 draws"
        columns = generate_samples(text_specs[0], seed=1)
        assert not columns["image_tokens"].any()

    # Text lengths 10 and 600, image lengths 300 and 1000; raw bytes are 4 per
    # text token plus the modality's bytes per image token, then amplified.
    def test_text_formulas(self):
        columns = generate_samples(fixed_source(Modality.TEXT), seed=0)
        assert columns["modality"].tolist() == ["text", "text"]
        assert columns["text_tokens"].tolist() == [10, 600]
        assert columns["image_tokens"].tolist() == [0, 0]
        assert columns["raw_bytes"].tolist() == [40, 2400]
        assert columns["decoded_bytes"].tolist() == [40, 2400]
        assert columns["video_frames"].tolist() == [0, 0]
        assert columns["audio_seconds"].tolist() == [0.0, 0.0]

    def test_image_formulas(self):
        columns = generate_samples(fixed_source(Modality.IMAGE), seed=0)
        assert columns["image_tokens"].tolist() == [300, 1000]
        assert columns["raw_bytes"].tolist() == [14440, 50400]
        assert columns["decoded_bytes"].tolist() == [173280, 604800]
        assert columns["video_frames"].tolist() == [0, 0]
        assert columns["audio_seconds"].tolist() == [0.0, 0.0]

    def test_video_formulas(self):
        columns = generate_samples(fixed_source(Modality.VIDEO), seed=0)
        assert columns["raw_bytes"].tolist() == [28840, 98400]
        assert columns["decoded_bytes"].tolist() == [692160, 2361600]
        assert columns["video_frames"].tolist() == [1, 3]
        assert columns["audio_seconds"].tolist() == [0.0, 0.0]

    def test_audio_formulas(self):
        columns = generate_samples(fixed_source(Modality.AUDIO), seed=0)
        assert columns["raw_bytes"].tolist() == [19240, 66400]
        assert columns["decoded_bytes"].tolist() == [115440, 398400]
        assert columns["video_frames"].tolist() == [0, 0]
        assert columns["audio_seconds"].tolist() == [1.25, 75.0]

    def test_column_dtypes(self):
        columns = generate_samples(fixed_source(Modality.AUDIO), seed=0)
        assert columns["modality"].dtype == np.dtype("<U5")
        assert columns["audio_seconds"].dtype == np.float64
        integers = set(columns) - {"modality", "audio_seconds"}
        assert {columns[name].dtype for name in integers} == {np.dtype(np.int64)}

    def test_decoded_bytes_amplified_for_images(self):
        spec = coyo700m_like_spec(num_sources=1, samples_per_source=20)
        columns = generate_samples(spec.sources[0], seed=0)
        assert (columns["decoded_bytes"] >= columns["raw_bytes"]).all()
        assert (columns["decoded_bytes"] > 5 * columns["raw_bytes"]).any()

    def test_generation_deterministic(self):
        spec = coyo700m_like_spec(num_sources=1, samples_per_source=50)
        a = generate_samples(spec.sources[0], seed=9)
        b = generate_samples(spec.sources[0], seed=9)
        assert a.keys() == b.keys()
        assert all(np.array_equal(a[name], b[name]) for name in a)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("num_samples", [0, -3])
    def test_source_without_samples_rejected(self, num_samples):
        with pytest.raises(ConfigurationError, match="'coyo700m/src000' must have at least one"):
            SyntheticSourceSpec("coyo700m/src000", Modality.IMAGE, num_samples=num_samples)


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

    def test_one_file_per_source(self, filesystem):
        spec = coyo700m_like_spec(num_sources=3, samples_per_source=10)
        catalog = build_source_catalog(spec, filesystem)
        assert [source.paths for source in catalog] == [
            (f"/data/{source.name}/part-00000",) for source in catalog
        ]

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
        columns = generate_samples(spec.sources[0], seed=spec.seed)
        assert source.avg_text_tokens == float(np.mean(columns["text_tokens"]))
        assert source.avg_image_tokens == float(np.mean(columns["image_tokens"]))
        assert source.avg_raw_bytes == float(np.mean(columns["raw_bytes"]))

    def test_navit_like_catalog_size(self, filesystem):
        catalog = build_source_catalog(
            navit_like_spec(num_sources=4, samples_per_source=16), filesystem
        )
        assert len(catalog) == 4
        assert catalog.total_samples() == 64
