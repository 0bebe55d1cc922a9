"""Batch assembly: collation kernels vs oracles, staging, hand-off.

The collation kernels and the rank layout are checked against oracles written
out here, one sample, segment or rank at a time: a first-fit scan over open-bin
residuals, segment tables appended per sample, a per-segment ``arange`` for
positions, and the CP split ``len // cp + (r < len % cp)`` with the TP
broadcast and PP metadata rules for deliveries.  The tests also pin the
zero-copy mechanics (GCS reference identity) and the delivered-batch manifest
audit trail.  The retired reference implementations' bytes are pinned in
``test_reference_pins.py``; end-to-end bytes in ``test_golden_digests.py``.
"""

from __future__ import annotations

from itertools import accumulate, count

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.actors.gcs import GlobalControlStore
from repro.actors.runtime import ActorSystem, ClusterSpec
from repro.core.assembly import PreparedColumns
from repro.core.checkpoint import InMemoryCheckpointStore, SqliteCheckpointStore
from repro.core.data_constructor import DataConstructor
from repro.core.framework import MANIFEST_NAMESPACE, MegaScaleData, TrainingJobSpec
from repro.core.source_loader import SourceLoader
from repro.data.samples import Modality, SampleMetadata
from repro.errors import PlanError
from conftest import bucket_samples, buffered_ids, module_plan_of, prepared_rows, stored_tokens
from repro.parallelism.mesh import DeviceMesh
from repro.transforms import microbatch
from repro.transforms.microbatch import (
    _positions_from_blocks,
    collate_columns_with_positions,
    first_fit_bin_indices,
)
from repro.transforms.parallelism import BYTES_PER_TOKEN, ParallelSlice
from repro.utils.units import GIB


def meta(sample_id: int, text_tokens: int, image_tokens: int = 0) -> SampleMetadata:
    return SampleMetadata(
        sample_id=sample_id,
        source="src",
        modality=Modality.TEXT,
        text_tokens=text_tokens,
        image_tokens=image_tokens,
        raw_bytes=4 * (text_tokens + image_tokens),
    )


def first_fit_scan(lengths: list[int], capacity: int) -> list[int]:
    """Oracle: each (clipped) sample goes to the lowest-numbered open bin
    whose residual fits it, found by scanning every open bin."""
    residuals: list[int] = []
    bins = []
    for length in lengths:
        length = min(length, capacity)
        for index, residual in enumerate(residuals):
            if residual >= length:
                residuals[index] -= length
                bins.append(index)
                break
        else:
            residuals.append(capacity - length)
            bins.append(len(residuals) - 1)
    return bins


def segment_tables(sample_ids: list[int], lengths: list[int], capacity: int) -> list[list]:
    """Oracle: per sequence, its ``(sample_id, clipped length)`` segments in arrival order."""
    bins = first_fit_scan(lengths, capacity)
    tables: list[list] = [[] for _ in range(max(bins, default=-1) + 1)]
    for sample_id, length, index in zip(sample_ids, lengths, bins):
        tables[index].append((sample_id, min(length, capacity)))
    return tables


def assert_collation_matches_oracle(collated, index, sample_ids, lengths, capacity) -> None:
    tables = segment_tables(sample_ids, lengths, capacity)
    assert collated.index == index
    assert collated.sample_ids == sample_ids
    assert [sequence.segments for sequence in collated.sequences] == tables
    # Byte-identity includes the *types*: numpy ints sneaking into segment
    # tuples would change pickled payloads.
    assert all(type(x) is int for seq in collated.sequences for seg in seq.segments for x in seg)
    totals = [sum(n for _, n in table) for table in tables]
    assert [sequence.tokens for sequence in collated.sequences] == totals
    assert collated.sequence_lengths == totals
    assert collated.total_tokens() == sum(totals)
    per_segment = [np.arange(n, dtype=np.int32) for table in tables for _, n in table]
    assert collated.position_ids.dtype == np.int32
    assert collated.position_ids.tolist() == np.concatenate(
        [np.empty(0, np.int32), *per_segment]
    ).tolist()


def collate_metas(index, metas, capacity):
    return collate_columns_with_positions(
        index,
        [m.sample_id for m in metas],
        np.array([m.total_tokens for m in metas], dtype=np.int64),
        capacity,
    )


def assert_metas_collate_like_oracle(index, metas, capacity):
    collated = collate_metas(index, metas, capacity)
    assert_collation_matches_oracle(
        collated, index, [m.sample_id for m in metas], [m.total_tokens for m in metas], capacity
    )
    return collated


# -- collation kernels ------------------------------------------------------------------


MAX_LENGTHS = [1, 8, 96, 640]
# Any length, salted with the boundaries: empty samples, exactly one full
# sequence, one token over.
lengths_lists = st.lists(
    st.integers(min_value=0, max_value=1200)
    | st.sampled_from([0, *MAX_LENGTHS, *(n + 1 for n in MAX_LENGTHS)]),
    max_size=48,
)


def old_positions_from_blocks(block_lengths):
    """The packed position kernel as it stood at 6bb56dd (delta cumsum)."""
    total = int(block_lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int32)
    lens = block_lengths[block_lengths > 0]
    deltas = np.ones(total, dtype=np.int32)
    deltas[0] = 0
    if len(lens) > 1:
        starts = np.cumsum(lens[:-1])
        deltas[starts] = 1 - lens[:-1]
    return np.cumsum(deltas, dtype=np.int32)


def assert_same_array(a, b) -> None:
    assert a.dtype == b.dtype == np.int32
    assert a.tolist() == b.tolist()


block_lengths = st.integers(min_value=0, max_value=300)


class TestPositionKernel:
    @given(blocks=st.lists(block_lengths, max_size=24))
    @settings(max_examples=120, deadline=None)
    def test_blocks_match_old_kernel_and_per_block_arange(self, blocks):
        lengths = np.array(blocks, dtype=np.int64)
        got = _positions_from_blocks(lengths)
        assert_same_array(got, old_positions_from_blocks(lengths))
        per_block = [np.arange(n, dtype=np.int32) for n in blocks]
        assert_same_array(got, np.concatenate([np.empty(0, np.int32), *per_block]))

    def test_block_longer_than_the_cached_ramp_grows_it(self):
        before = len(microbatch._RAMP)
        lengths = np.array([3, before + 7, 0, 5], dtype=np.int64)
        got = _positions_from_blocks(lengths)
        assert_same_array(got, old_positions_from_blocks(lengths))
        assert len(microbatch._RAMP) >= before + 7
        assert_same_array(microbatch._RAMP, np.arange(len(microbatch._RAMP), dtype=np.int32))
        # The result is a copy: writing to it must not reach the shared ramp.
        got[:] = -1
        assert microbatch._RAMP[:3].tolist() == [0, 1, 2]


class TestCollationEquivalence:
    @given(lengths=lengths_lists, max_len=st.sampled_from(MAX_LENGTHS))
    @settings(max_examples=120, deadline=None)
    def test_packed_collation_byte_identical(self, lengths, max_len):
        assert_metas_collate_like_oracle(2, [meta(3 * i + 1, n) for i, n in enumerate(lengths)], max_len)

    @given(lengths=lengths_lists, capacity=st.integers(min_value=1, max_value=512))
    @settings(max_examples=120, deadline=None)
    def test_first_fit_matches_reference_scan(self, lengths, capacity):
        fast, sequence_lengths, sequence_offsets = first_fit_bin_indices(
            np.array(lengths, dtype=np.int64), capacity, [0, len(lengths)]
        )
        assert fast.tolist() == first_fit_scan(lengths, capacity)
        assert sequence_offsets == [0, len(sequence_lengths)]
        assert sequence_lengths == [
            sum(n for _, n in table) for table in segment_tables(list(range(len(lengths))), lengths, capacity)
        ]

    # The degenerate corners the sweep never hits: empty microbatches,
    # all-overflow samples, single-sample batches.
    @given(
        corner=st.sampled_from(["empty", "all_overflow", "single"]),
        max_len=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_degenerate_corners_match_reference(self, corner, max_len, seed):
        if corner == "empty":
            metas = []
        elif corner == "all_overflow":
            metas = [meta(i + 1, max_len + 1 + (seed + i) % 7) for i in range(4)]
        else:
            metas = [meta(seed + 1, seed % (2 * max_len + 1))]
        columnar = assert_metas_collate_like_oracle(1, metas, max_len)
        if corner == "all_overflow":
            # Every clipped sample fills a whole bin: assignments are 0..n-1.
            assert [len(seq.segments) for seq in columnar.sequences] == [1] * len(metas)

    @given(lengths=lengths_lists, positions_first=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_kernel_collation_expands_on_first_read_only(self, lengths, positions_first):
        metas = [meta(3 * i + 1, n) for i, n in enumerate(lengths)]
        columnar = collate_columns_with_positions(
            4, [m.sample_id for m in metas], np.array(lengths, dtype=np.int64), 96
        )
        # Slicing inputs are there without either lazy field having been built.
        assert "sequences" not in vars(columnar) and "position_ids" not in vars(columnar)
        assert columnar.total_tokens() == sum(columnar.sequence_lengths)
        assert "sequences" not in vars(columnar) and "position_ids" not in vars(columnar)
        # Either read order gives the oracle's values, and a second read
        # returns the object the first one built.
        first = columnar.position_ids if positions_first else columnar.sequences
        assert (columnar.position_ids if positions_first else columnar.sequences) is first
        assert_collation_matches_oracle(columnar, 4, [m.sample_id for m in metas], lengths, 96)

    def test_columnar_collation_clips_oversized_sample_like_reference(self):
        columnar = collate_columns_with_positions(0, [9, 10], np.array([100, 20]), 64)
        assert columnar.total_tokens() == 84
        assert_collation_matches_oracle(columnar, 0, [9, 10], [100, 20], 64)

    def test_first_fit_clips_and_has_no_overflow_flag(self):
        # The flag was accepted and ignored; over-capacity samples are clipped.
        bins, sequence_lengths, _ = first_fit_bin_indices(np.array([100, 10]), 64, [0, 2])
        assert (bins.tolist(), sequence_lengths) == ([0, 1], [64, 10])
        with pytest.raises(TypeError):
            first_fit_bin_indices(np.array([100]), 64, [0, 1], allow_overflow=False)


def bucket_lengths(rng, sizes: list[int], capacity: int) -> list[list[int]]:
    """Per microbatch, ``size`` token lengths: mostly in ``0..capacity``,
    salted with zero-length, exactly-full and over-capacity samples."""
    microbatches = []
    for size in sizes:
        lengths = rng.integers(0, capacity + 1, size=size)
        salt = rng.random(size)
        lengths[salt < 0.1] = 0
        lengths[(salt >= 0.1) & (salt < 0.15)] = capacity
        lengths[salt >= 0.9] = capacity + 1 + rng.integers(0, capacity + 1, size=size)[salt >= 0.9]
        microbatches.append(lengths.tolist())
    return microbatches


#: Microbatch sizes either side of the scan / tree switch, empty ones included.
segment_sizes = st.lists(
    st.integers(min_value=0, max_value=300)
    | st.sampled_from(
        [0, microbatch.SCAN_MAX_SAMPLES, microbatch.SCAN_MAX_SAMPLES + 1, 2 * microbatch.SCAN_MAX_SAMPLES]
    ),
    max_size=5,
)


class TestBucketCollation:
    """One call over a bucket equals each microbatch packed on its own."""

    @given(
        sizes=segment_sizes,
        capacity=st.integers(min_value=1, max_value=512),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_segmented_first_fit_is_a_scan_per_microbatch(self, sizes, capacity, seed):
        microbatches = bucket_lengths(np.random.default_rng(seed), sizes, capacity)
        offsets = [0]
        expected, sequence_offsets = [], [0]
        for lengths in microbatches:
            offsets.append(offsets[-1] + len(lengths))
            local = first_fit_scan(lengths, capacity)
            expected += [sequence_offsets[-1] + index for index in local]
            sequence_offsets.append(sequence_offsets[-1] + max(local, default=-1) + 1)
        flat = np.array([n for lengths in microbatches for n in lengths], dtype=np.int64)
        bins, _, got_offsets = first_fit_bin_indices(flat, capacity, offsets)
        assert bins.tolist() == expected
        assert got_offsets == sequence_offsets

    @given(
        sizes=segment_sizes,
        capacity=st.sampled_from(MAX_LENGTHS),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_bucket_collation_is_each_microbatch_collated_alone(self, sizes, capacity, seed):
        microbatches = bucket_lengths(np.random.default_rng(seed), sizes, capacity)
        ids = count(5, 3)
        id_lists = [[next(ids) for _ in lengths] for lengths in microbatches]
        collated = collate_columns_with_positions(
            2,
            [i for id_list in id_lists for i in id_list],
            np.array([n for lengths in microbatches for n in lengths], dtype=np.int64),
            capacity,
            list(accumulate(map(len, microbatches), initial=0)),
        )
        assert collated.index == 2
        tables = [segment_tables(*pair, capacity) for pair in zip(id_lists, microbatches)]
        bounds = collated.sequence_offsets
        assert [bounds[m + 1] - bounds[m] for m in range(len(tables))] == list(map(len, tables))
        every_table = [table for per_microbatch in tables for table in per_microbatch]
        assert [sequence.segments for sequence in collated.sequences] == every_table
        assert collated.sequence_lengths == [sum(n for _, n in t) for t in every_table]
        assert collated.position_ids.tolist() == [
            position for table in every_table for _, n in table for position in range(n)
        ]

    def test_each_side_of_the_switch_runs(self, monkeypatch):
        ran = []
        for name in ("_scan_segment", "_tree_segment"):
            plain = getattr(microbatch, name)

            def counted(*args, _name=name, _plain=plain):
                ran.append(_name)
                return _plain(*args)

            monkeypatch.setattr(microbatch, name, counted)
        size = microbatch.SCAN_MAX_SAMPLES
        lengths = np.arange(2 * size + 1, dtype=np.int64) % 97
        first_fit_bin_indices(lengths, 256, [0, size, 2 * size + 1])
        assert ran == ["_scan_segment", "_tree_segment"]


# -- loader staging ---------------------------------------------------------------------


class TestStagedColumns:
    """A ticket keeps the buffer rows it took; its hand-off turns exactly
    those rows into one ``PreparedColumns`` slice."""

    def test_columns_keep_row_order(self):
        columns = prepared_rows([(5, 50, 0, 200), (3, 30, 7, 120), (9, 90, 0, 360)])
        assert columns.sample_ids.tolist() == [5, 3, 9]
        assert columns.total_tokens.tolist() == [50, 37, 90]
        assert columns.transferred_bytes.tolist() == [200, 120, 360]
        assert columns.total_bytes() == 680
        assert len(prepared_rows([])) == 0

    def test_take_returns_rows_in_requested_order(self, system, small_catalog, filesystem):
        handle = spawn_loader(system, small_catalog, filesystem, buffer_size=16)
        loader = handle.instance()
        buffered = buffered_ids(loader)[:4]
        wanted = [buffered[2], buffered[0], buffered[3]]
        reply = handle.call("poll", 1, 2, wanted)
        assert len(reply["chunk_wall_clock_s"]) == 2
        columns = system.gcs.take(reply["key"])
        assert columns.sample_ids.tolist() == wanted
        text, image = stored_tokens(loader, wanted)
        assert columns.total_tokens.tolist() == [t + i for t, i in zip(text, image)]
        assert reply["staged_bytes"] == columns.total_bytes() > 0
        assert loader.staged_count() == 0

    def test_take_missing_raises(self, system, small_catalog, filesystem):
        """A demand naming an unbuffered id fails before taking anything: the
        retry without that id succeeds and releases every staged byte."""
        handle = spawn_loader(system, small_catalog, filesystem, buffer_size=16)
        loader = handle.instance()
        ids = buffered_ids(loader)[:2]
        with pytest.raises(PlanError, match="unknown sample 12345"):
            handle.call("prepare", [ids[0], 12345])
        assert loader.staged_count() == 0
        assert loader.buffered_among(ids) == set(ids)
        assert loader.ledger.live_bytes("sample_payload") == 0
        reply = handle.call("prepare", ids)
        assert system.gcs.take(reply["key"]).sample_ids.tolist() == ids
        assert reply["staged_bytes"] > 0
        assert loader.staged_count() == 0
        assert loader.ledger.live_bytes("sample_payload") == 0

    def test_drop_and_drop_all_release_bytes(self, system, small_catalog, filesystem):
        """Dropping the open tickets releases the rows they took: a pristine
        reset drops them, and so does the loader's stop hook."""
        handle = spawn_loader(system, small_catalog, filesystem, buffer_size=16)
        loader = handle.instance()
        ids = buffered_ids(loader)[:6]
        handle.call("prepare_async", 1, ids[:2])
        assert loader.staged_count() == 2
        handle.call("reset_for_replay")
        assert loader.staged_count() == 0
        assert loader.ledger.live_bytes("sample_payload") == 0
        handle.call("prepare_async", 1, ids[:2])
        handle.call("prepare_async", 2, ids[3:4])
        held = sum(entry.staged_bytes for entry in loader._tickets.values())
        assert loader.staged_count() == 3
        assert loader.ledger.live_bytes("sample_payload") == held > 0
        loader.on_stop()
        assert loader.staged_count() == 0
        assert loader.ledger.live_bytes("sample_payload") == 0

    def test_prepared_columns_lookup_reports_missing(self):
        columns = prepared_rows([(4, 16, 0, 64), (8, 16, 0, 64), (2, 16, 0, 64)])
        rows, missing = columns.lookup([8, 6, 2])
        assert missing == [6]
        assert columns.sample_ids[rows].tolist() == [8, 2]


# -- loader staging + GCS hand-off ------------------------------------------------------


@pytest.fixture()
def system():
    return ActorSystem(ClusterSpec(accelerator_nodes=1, cpu_pods=1))


def spawn_loader(system, catalog, filesystem, **kwargs):
    source = catalog.sources()[0]
    unique = len(system.list_actor_names())
    return system.create_actor(
        lambda: SourceLoader(source, filesystem, **kwargs),
        name=f"loader-col-{unique}",
        memory_bytes=GIB,
    )


class TestLoaderHandOff:
    def test_fetch_prepared_ref_is_zero_copy(self, system, small_catalog, filesystem):
        handle = spawn_loader(system, small_catalog, filesystem, buffer_size=16)
        loader = handle.instance()
        sample_ids = buffered_ids(loader)[:4]
        ref = handle.call("prepare", sample_ids)
        assert ref["num_samples"] == 4
        # The GCS serves the frozen columns BY REFERENCE: the exact object
        # the loader published, not a copy — and take() removes the key.
        published = system.gcs.get(ref["key"])
        resolved = system.gcs.take(ref["key"])
        assert resolved is published
        assert isinstance(resolved, PreparedColumns)
        assert resolved.sample_ids.tolist() == sample_ids
        assert system.gcs.get(ref["key"]) is None
        assert loader.staged_count() == 0
        assert loader.ledger.live_bytes("sample_payload") == 0

    def test_ref_columns_carry_the_buffered_metadata(
        self, system, small_catalog, filesystem
    ):
        handle = spawn_loader(system, small_catalog, filesystem, buffer_size=8)
        loader = handle.instance()
        sample_ids = buffered_ids(loader)[:2]
        ref = handle.call("prepare", sample_ids)
        columns = system.gcs.take(ref["key"])
        assert (columns.text_tokens.tolist(), columns.image_tokens.tolist()) == stored_tokens(
            loader, sample_ids
        )
        assert columns.total_bytes() == ref["staged_bytes"]

    def test_a_reset_drops_an_open_ticket(self, system, small_catalog, filesystem):
        """An open ticket blocks its id until a pristine reset drops it, rows
        and all: nothing is published for it, and the id serves again."""
        handle = spawn_loader(system, small_catalog, filesystem)
        ids = buffered_ids(handle.instance())[:4]
        handle.call("prepare_async", 3, ids)
        with pytest.raises(PlanError, match="in-flight ticket 3"):
            handle.call("poll", 3, 2, ids)
        handle.call("reset_for_replay")
        assert system.gcs.keys("prepared/") == []
        reply = handle.call("poll", 3, 2, ids)
        assert system.gcs.keys("prepared/") == [reply["key"]]


# -- constructor equivalence ------------------------------------------------------------


def make_plan(tokens_by_microbatch):
    sids = count(1)
    return module_plan_of(
        [[[meta(next(sids), tokens) for tokens in token_list] for token_list in tokens_by_microbatch]]
    )


def columns_for(plan):
    """The hand-off of ``plan``'s rows, with the raw bytes ``meta`` gives them."""
    rows = plan.rows
    return PreparedColumns(rows.sample_ids, rows.text_tokens, rows.image_tokens, 4 * rows.total_tokens)


def rank_slices_oracle(mesh, dp_index, index, sequence_lengths) -> list[ParallelSlice]:
    """Oracle: one DP group's slices of a microbatch, one rank at a time.

    PP stages past the first and before the last get shape metadata only; TP
    ranks past the first get the broadcast from their (PP, CP) head; CP rank
    ``r`` fetches ``len // cp + (r < len % cp)`` tokens of every sequence.
    """
    cp, last_stage = mesh.size("CP"), mesh.size("PP") - 1
    metadata_bytes = 64 * len(sequence_lengths)
    slices = []
    for rank in mesh.ranks_where(dp=dp_index):
        coord = mesh.coordinate(rank)
        info = {"cp_rank": coord.cp, "tp_rank": coord.tp, "pp_rank": coord.pp}
        head = mesh.ranks_where(dp=dp_index, cp=coord.cp, pp=coord.pp)[0]
        if coord.pp not in (0, last_stage):
            tokens, info, source = 0, {}, None
        elif coord.tp > 0:
            tokens, source = 0, head
        else:
            tokens = sum(n // cp + (coord.cp < n % cp) for n in sequence_lengths)
            source = None
        slices.append(ParallelSlice(
            rank=rank, microbatch_index=index, token_count=tokens,
            payload_bytes=tokens * BYTES_PER_TOKEN + metadata_bytes,
            metadata_only=tokens == 0, replicated_from=source, slice_info=info,
        ))
    return slices


class TestConstructorEquivalence:
    @given(
        sizes=segment_sizes.filter(any),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        pp=st.sampled_from([1, 2, 3, 4]),
        dp=st.sampled_from([1, 2]),
        cp=st.sampled_from([1, 2, 3]),
        tp=st.sampled_from([1, 2, 3]),
    )
    @settings(max_examples=150, deadline=None)
    def test_rank_deliveries_match_reference_collation(self, sizes, seed, pp, dp, cp, tp):
        mesh = DeviceMesh(pp=pp, dp=dp, cp=cp, tp=tp, gpus_per_node=8)
        dp_index = dp - 1
        plan = make_plan(bucket_lengths(np.random.default_rng(seed), sizes, 512))
        constructor = DataConstructor(
            bucket_index=0, mesh=mesh, dp_index=dp_index, max_sequence_length=512
        )
        stats = constructor.construct(0, plan, columns_for(plan))

        # Expected: the oracle's segment tables, sliced by the oracle's rules,
        # one microbatch and one rank at a time.
        expected: dict[int, list[ParallelSlice]] = {}
        expected_seconds = expected_staged = expected_saved = 0
        for mb, samples in enumerate(bucket_samples(plan)[0]):
            tables = segment_tables(
                samples.sample_ids.tolist(), samples.total_tokens.tolist(), 512
            )
            lengths = [sum(n for _, n in table) for table in tables]
            expected_seconds += sum(lengths) * DataConstructor.COLLATE_SECONDS_PER_TOKEN
            for piece in rank_slices_oracle(mesh, dp_index, mb, lengths):
                expected.setdefault(piece.rank, []).append(piece)
                expected_staged += piece.payload_bytes
                if piece.replicated_from is not None or piece.metadata_only:
                    expected_saved += max(0, sum(lengths) * BYTES_PER_TOKEN - piece.payload_bytes)
        assert constructor.ranks_served(0) == sorted(expected)
        for rank, reference in expected.items():
            delivered = constructor.get_batch(0, rank)
            assert delivered.rank == rank
            assert delivered.slices == reference
            # ``slice_info`` is excluded from ``==``; it must match all the same.
            assert [piece.slice_info for piece in delivered.slices] == [
                piece.slice_info for piece in reference
            ]
            assert delivered.total_tokens() == sum(piece.token_count for piece in reference)
            assert delivered.total_payload_bytes() == sum(piece.payload_bytes for piece in reference)
        # The virtual-clock charge sums microbatch by microbatch, as the
        # oracle does; staged and saved bytes are exact.
        assert stats["collate_seconds"] == expected_seconds
        assert stats["staged_bytes"] == expected_staged
        assert constructor.broadcast_bytes_saved == expected_saved

    def test_missing_sample_rejected(self):
        mesh = DeviceMesh(pp=1, dp=1, cp=1, tp=1, gpus_per_node=8)
        plan = make_plan([[64, 64]])
        constructor = DataConstructor(bucket_index=0, mesh=mesh, dp_index=0)
        with pytest.raises(PlanError, match=r"missing prepared samples \[1, 2\]"):
            constructor.construct(0, plan, PreparedColumns.empty())


# -- end-to-end -------------------------------------------------------------------------


def run_job(prefetch_depth=0, steps=3, checkpoint_store=None, **overrides):
    job = TrainingJobSpec(
        pp=2,
        dp=2,
        cp=2,
        tp=2,
        backbone="Llama-12B",
        samples_per_dp_step=8,
        num_microbatches=2,
        num_sources=3,
        samples_per_source=64,
        seed=13,
        prefetch_depth=prefetch_depth,
        **overrides,
    )
    framework = MegaScaleData.deploy(job, checkpoint_store=checkpoint_store)
    results = []
    for _ in range(steps):
        results.append(framework.run_step(simulate=False))
    return framework, results


class TestEndToEnd:
    def test_format_knobs_are_gone(self):
        with pytest.raises(TypeError):
            TrainingJobSpec(assembly="legacy")
        with pytest.raises(TypeError):
            TrainingJobSpec(planning="legacy")

    def test_run_leaves_no_gcs_handoff_keys(self):
        framework, _ = run_job(prefetch_depth=2, steps=3)
        assert framework.system.gcs.keys(prefix="prepared/") == []


# -- delivered-batch manifests ----------------------------------------------------------


class TestDeliveryManifests:
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_manifest_round_trip(self, backend):
        framework, results = run_job(steps=3, checkpoint_backend=backend)
        for result in results:
            manifest = framework.delivery_manifest(result.step)
            assert manifest is not None
            assert manifest["step"] == result.step
            assert manifest["ranks"] == sorted(result.deliveries)
            delivered_ids = sorted(
                sid
                for ids in manifest["buckets"].values()
                for sid in ids
            )
            planned_ids = sorted(result.plan.module("backbone").rows.sample_ids.tolist())
            assert delivered_ids == planned_ids
        audit = framework.delivery_audit()
        assert audit["steps"] == 3
        assert audit["exactly_once"] is True
        assert audit["gaps"] == []

    def test_audit_detects_gaps_and_duplicates(self):
        framework, _ = run_job(steps=3)
        store = framework.checkpoint_store
        # Simulate a lost manifest and a double delivery.
        steps = store.steps(MANIFEST_NAMESPACE)
        middle = steps[1]
        broken = store.load(MANIFEST_NAMESPACE, steps[2])
        first_bucket = next(iter(broken["buckets"]))
        broken["buckets"]["constructor/ghost"] = broken["buckets"][first_bucket][:1]
        store.save(MANIFEST_NAMESPACE, steps[2], broken)
        store.delete_from(MANIFEST_NAMESPACE, middle)
        store.save(MANIFEST_NAMESPACE, steps[2], broken)
        audit = framework.delivery_audit()
        assert audit["exactly_once"] is False
        assert middle in audit["gaps"]
        assert steps[2] in audit["duplicate_steps"]

    def test_manifests_survive_restore(self):
        store = InMemoryCheckpointStore()
        framework, _ = run_job(steps=3, checkpoint_store=store)
        framework.save_checkpoint()
        restored = MegaScaleData.restore(framework.job, store)
        audit = restored.delivery_audit()
        assert audit["steps"] == 3
        assert audit["exactly_once"] is True


def test_sqlite_store_importable():
    # Guard: the sqlite manifest backend used above must exist.
    assert SqliteCheckpointStore is not None
