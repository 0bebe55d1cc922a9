"""Unit tests for the columnar sample sets the Planner and the DGraph read."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.columns import SampleColumns
from repro.data.samples import Modality, SampleMetadata


def make_sample(sample_id, text_tokens=64, source="src"):
    return SampleMetadata(sample_id, source, Modality.TEXT, text_tokens=text_tokens)


def reply_of(samples, index):
    """A loader's buffer reply over ``samples``; ``index`` holds the source's records."""
    return {
        "sample_ids": np.array([s.sample_id for s in samples], dtype=np.int64),
        "text_tokens": np.array([s.text_tokens for s in samples], dtype=np.int64),
        "image_tokens": np.array([s.image_tokens for s in samples], dtype=np.int64),
        "records": lambda ids: [index[i] for i in ids],
    }


def gathered(by_source):
    """A gathered set: ``source -> list of per-loader record lists``."""
    replies = []
    for loaders in by_source.values():
        index = {s.sample_id: s for loader in loaders for s in loader}
        replies.append([reply_of(loader, index) for loader in loaders])
    return SampleColumns.gathered(list(by_source), replies)


def ids_of(columns):
    return [sample.sample_id for sample in columns.to_list()]


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
        assert columns.to_list() == a + b1 + b2
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


class TestConcat:
    def test_shared_sources_are_merged_into_one_table(self):
        first = SampleColumns.from_samples([make_sample(1, source="a"), make_sample(2, source="b")])
        second = SampleColumns.from_samples([make_sample(3, source="b"), make_sample(4, source="c")])
        joined = SampleColumns.concat([first, second])
        assert joined.sources == ("a", "b", "c")
        assert [joined.sources[code] for code in joined.source_codes] == ["a", "b", "b", "c"]
        assert joined.sample_ids.tolist() == [1, 2, 3, 4]
        assert joined.runs is None
        assert ids_of(joined) == [1, 2, 3, 4]

    def test_grouped_parts_over_distinct_sources_stay_grouped(self):
        a = gathered({"a": [[make_sample(1, source="a")]]})
        b = gathered({"b": [[make_sample(5, source="b"), make_sample(6, source="b")]]})
        joined = SampleColumns.concat([a, b])
        assert joined.runs == [(0, 0, 1), (1, 1, 3)]
        assert ids_of(joined) == [1, 5, 6]

    def test_no_parts_and_one_part(self):
        assert len(SampleColumns.concat([])) == 0
        only = SampleColumns.from_samples([make_sample(5)])
        assert SampleColumns.concat([only]) is only

    def test_coerce_concatenates_a_mapping_in_order(self):
        mapping = {
            "b": [make_sample(3, source="b")],
            "a": gathered({"a": [[make_sample(1, source="a")]]}),
        }
        columns = SampleColumns.coerce(mapping)
        assert ids_of(columns) == [3, 1]
        assert SampleColumns.coerce(columns) is columns


class TestViews:
    def test_where_keeps_order_records_and_runs(self):
        samples = [make_sample(i, text_tokens=10 * i, source="ab"[i % 2]) for i in range(1, 7)]
        columns = gathered({"a": [samples[1::2]], "b": [samples[0::2]]})
        kept = columns.where(columns.text_tokens > 25)
        assert kept.sample_ids.tolist() == [4, 6, 3, 5]
        assert kept.runs == [(0, 0, 2), (1, 2, 4)]
        assert ids_of(kept) == [4, 6, 3, 5]

    def test_select_and_slice(self):
        samples = [make_sample(i, text_tokens=10 * i) for i in range(1, 6)]
        columns = SampleColumns.from_samples(samples)
        picked = columns.select(np.array([4, 0]))
        assert picked.sample_ids.tolist() == [5, 1]
        assert picked.to_list() == [samples[4], samples[0]]
        cut = columns.select(slice(1, 3))
        assert cut.total_tokens.tolist() == [20, 30]
        assert cut.to_list() == samples[1:3]
        assert len(SampleColumns.empty().to_list()) == 0
