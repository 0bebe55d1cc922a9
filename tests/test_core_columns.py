"""Unit tests for the columnar sample sets the Planner and the DGraph read."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.columns import SampleColumns
from repro.data.samples import Modality, SampleMetadata


def make_sample(sample_id, text_tokens=64, source="src"):
    return SampleMetadata(sample_id, source, Modality.TEXT, text_tokens=text_tokens)


def reply_of(samples):
    """A loader's buffer reply over ``samples``."""
    return {
        "sample_ids": np.array([s.sample_id for s in samples], dtype=np.int64),
        "text_tokens": np.array([s.text_tokens for s in samples], dtype=np.int64),
        "image_tokens": np.array([s.image_tokens for s in samples], dtype=np.int64),
    }


def gathered(by_source):
    """A gathered set: ``source -> list of per-loader record lists``."""
    return SampleColumns.gathered(
        list(by_source), [[reply_of(loader) for loader in loaders] for loaders in by_source.values()]
    )


class TestGathered:
    def test_one_run_per_source_in_reply_order(self):
        a = [make_sample(i, source="a") for i in (1, 2)]
        b1 = [make_sample(i, source="b") for i in (7,)]
        b2 = [make_sample(i, source="b") for i in (8, 9)]
        columns = gathered({"a": [a], "b": [b1, b2], "c": [[]]})
        assert columns.sources == ("a", "b", "c")
        assert columns.sample_ids.tolist() == [1, 2, 7, 8, 9]
        assert columns.source_codes.tolist() == [0, 0, 1, 1, 1]
        assert columns.runs == [(0, 0, 2), (1, 2, 5), (2, 5, 5)]
        assert columns.source_runs() == {"a": (0, 0, 2), "b": (1, 2, 5), "c": (2, 5, 5)}
        assert columns == SampleColumns.from_samples(a + b1 + b2)
        assert columns.total_tokens.tolist() == [s.total_tokens for s in a + b1 + b2]

    def test_views_agree_grouped_and_ungrouped(self):
        samples = [make_sample(i, source=source) for i, source in [(1, "a"), (2, "a"), (3, "b")]]
        grouped = gathered({"a": [samples[:2]], "b": [samples[2:]]})
        flat = SampleColumns.from_samples(samples)
        assert flat.runs is None
        for columns in (grouped, flat):
            assert columns.source_order() == [0, 1]
            assert {code: pool.tolist() for code, pool in columns.pool_positions().items()} == {
                0: [0, 1], 1: [2]
            }
        with pytest.raises(ValueError):
            flat.source_runs()


class TestEquality:
    def test_ids_tokens_and_row_sources_are_compared(self):
        samples = [make_sample(1, source="a"), make_sample(2, source="b")]
        columns = SampleColumns.from_samples(samples)
        assert columns == gathered({"a": [samples[:1]], "b": [samples[1:]]})
        assert columns != SampleColumns.from_samples([make_sample(1, source="a"), make_sample(2)])
        assert columns != SampleColumns.from_samples([samples[0], make_sample(2, 65, "b")])
        assert columns != SampleColumns.from_samples(samples[::-1])
        assert SampleColumns.empty() == SampleColumns.from_samples([])


class TestViews:
    def test_where_keeps_order_records_and_runs(self):
        samples = [make_sample(i, text_tokens=10 * i, source="ab"[i % 2]) for i in range(1, 7)]
        columns = gathered({"a": [samples[1::2]], "b": [samples[0::2]]})
        kept = columns.where(columns.text_tokens > 25)
        assert kept.sample_ids.tolist() == [4, 6, 3, 5]
        assert kept.runs == [(0, 0, 2), (1, 2, 4)]
        assert kept.sources == ("a", "b")
        assert kept.source_codes.tolist() == [0, 0, 1, 1]

    def test_select_and_slice(self):
        samples = [make_sample(i, text_tokens=10 * i) for i in range(1, 6)]
        columns = SampleColumns.from_samples(samples)
        picked = columns.select(np.array([4, 0]))
        assert picked.sample_ids.tolist() == [5, 1]
        assert picked == SampleColumns.from_samples([samples[4], samples[0]])
        cut = columns.select(slice(1, 3))
        assert cut.total_tokens.tolist() == [20, 30]
        assert cut == SampleColumns.from_samples(samples[1:3])
        assert len(SampleColumns.empty()) == 0
