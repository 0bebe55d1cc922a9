"""Unit tests for the columnar sample views the Planner and the DGraph read."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.columns import SampleColumns
from repro.data.samples import Modality, SampleMetadata


def make_sample(sample_id, text_tokens=64, source="src"):
    return SampleMetadata(sample_id, source, Modality.TEXT, text_tokens=text_tokens)


def rows_of(source, ids, text_tokens=8):
    """Loader buffer rows, ``(metadata, ...)``, for ``ids`` of one source."""
    return [(make_sample(i, text_tokens=text_tokens + i, source=source), i) for i in ids]


def ids_of(columns):
    return [sample.sample_id for sample in columns.to_list()]


class TestRotateTake:
    @pytest.mark.parametrize("offset,count", [(0, 4), (3, 5), (5, 5), (7, 2), (12, 3)])
    def test_lazy_set_matches_the_list_rotation(self, offset, count):
        rows = rows_of("a", range(5))
        columns = SampleColumns.of_source("a", rows)
        shift = offset % len(rows)
        expected = [row[0].sample_id for row in (rows[shift:] + rows[:shift])[:count]]
        assert ids_of(columns.rotate_take(offset, count)) == expected

    def test_eager_set_matches_the_lazy_set(self):
        rows = rows_of("a", range(6))
        lazy = SampleColumns.of_source("a", rows)
        eager = SampleColumns.from_samples([row[0] for row in rows])
        for offset, count in [(0, 6), (2, 4), (4, 6), (9, 1)]:
            taken = eager.rotate_take(offset, count)
            assert ids_of(taken) == ids_of(lazy.rotate_take(offset, count))
            assert taken.total_tokens.tolist() == [
                sample.total_tokens for sample in taken.to_list()
            ]

    def test_nothing_to_take(self):
        columns = SampleColumns.from_samples([make_sample(1)])
        assert len(columns.rotate_take(0, 0)) == 0
        assert len(SampleColumns.empty().rotate_take(3, 2)) == 0


class TestConcat:
    def test_distinct_lazy_sources_keep_buffer_order(self):
        a = SampleColumns.of_source("a", rows_of("a", [1, 2]))
        b = SampleColumns.of_source("b", rows_of("b", [7, 8, 9]))
        joined = SampleColumns.concat([a, b])
        assert joined.sources == ("a", "b")
        assert ids_of(joined) == [1, 2, 7, 8, 9]
        assert joined.source_codes.tolist() == [0, 0, 1, 1, 1]
        assert joined.sample_ids.tolist() == [1, 2, 7, 8, 9]

    def test_shared_sources_are_merged_into_one_table(self):
        first = SampleColumns.from_samples([make_sample(1, source="a"), make_sample(2, source="b")])
        second = SampleColumns.from_samples([make_sample(3, source="b"), make_sample(4, source="c")])
        joined = SampleColumns.concat([first, second])
        assert joined.sources == ("a", "b", "c")
        assert [joined.sources[code] for code in joined.source_codes] == ["a", "b", "b", "c"]
        assert joined.sample_ids.tolist() == [1, 2, 3, 4]

    def test_no_parts_and_one_part(self):
        assert len(SampleColumns.concat([])) == 0
        only = SampleColumns.from_samples([make_sample(5)])
        assert SampleColumns.concat([only]) is only

    def test_coerce_concatenates_a_mapping_in_order(self):
        mapping = {
            "b": [make_sample(3, source="b")],
            "a": SampleColumns.of_source("a", rows_of("a", [1])),
        }
        columns = SampleColumns.coerce(mapping)
        assert ids_of(columns) == [3, 1]
        assert SampleColumns.coerce(columns) is columns


class TestViews:
    def test_source_order_and_pool_positions_agree_lazy_and_eager(self):
        rows = rows_of("a", [1, 2]) + rows_of("b", [3])
        lazy = SampleColumns.concat(
            [SampleColumns.of_source("a", rows[:2]), SampleColumns.of_source("b", rows[2:])]
        )
        eager = SampleColumns.from_samples([row[0] for row in rows])
        for columns in (lazy, eager):
            assert columns.source_order() == [0, 1]
            pools = columns.pool_positions()
            assert {code: positions.tolist() for code, positions in pools.items()} == {
                0: [0, 1], 1: [2]
            }

    def test_where_keeps_order_and_records(self):
        samples = [make_sample(i, text_tokens=10 * i) for i in range(1, 6)]
        columns = SampleColumns.from_samples(samples)
        kept = columns.where(columns.text_tokens > 25)
        assert kept.sample_ids.tolist() == [3, 4, 5]
        assert all(record is samples[record.sample_id - 1] for record in kept.to_list())
        picked = columns.select(np.array([4, 0]))
        assert picked.sample_ids.tolist() == [5, 1]
