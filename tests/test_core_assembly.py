"""Batch assembly: collation kernels vs their reference, staging, hand-off.

The collation kernels must be indistinguishable from the per-sample reference
collators everywhere it can be observed: collated microbatches, bin
assignments, RoPE positions, per-rank deliveries.  These tests pin that, plus
the zero-copy mechanics (GCS reference identity) and the delivered-batch
manifest audit trail.  End-to-end bytes are pinned in
``test_golden_digests.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.actors.gcs import GlobalControlStore
from repro.actors.runtime import ActorSystem, ClusterSpec
from repro.core.assembly import PreparedColumns
from repro.core.checkpoint import InMemoryCheckpointStore, SqliteCheckpointStore
from repro.core.data_constructor import DataConstructor, RankDelivery
from repro.core.framework import MANIFEST_NAMESPACE, MegaScaleData, TrainingJobSpec
from repro.core.plans import ModulePlan
from repro.core.source_loader import SourceLoader
from repro.data.samples import Modality, SampleMetadata
from repro.errors import PlanError
from conftest import assignment_of, bucket_samples, prepared_rows
from repro.parallelism.mesh import DeviceMesh
from repro.transforms import microbatch
from repro.transforms.microbatch import (
    Microbatch,
    _positions_from_blocks,
    collate_columns_with_positions,
    collate_with_positions,
    first_fit_bin_indices,
)
from repro.transforms.parallelism import build_rank_slices
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


def assert_collated_equal(a, b) -> None:
    assert a.index == b.index
    assert a.max_sequence_length == b.max_sequence_length
    assert a.sample_ids == b.sample_ids
    assert len(a.sequences) == len(b.sequences)
    for sa, sb in zip(a.sequences, b.sequences):
        assert sa.tokens == sb.tokens
        assert sa.segments == sb.segments
        # Byte-identity includes the *types*: numpy ints sneaking into
        # segment tuples would change pickled payloads.
        assert all(type(x) is int for seg in sb.segments for x in seg)
    assert a.position_ids.dtype == b.position_ids.dtype == np.int32
    assert np.array_equal(a.position_ids, b.position_ids)
    assert a.total_tokens() == b.total_tokens()
    assert b.sequence_lengths.tolist() == [sequence.tokens for sequence in a.sequences]


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
        metas = [meta(3 * i + 1, n) for i, n in enumerate(lengths)]
        legacy = collate_with_positions(Microbatch(index=2, samples=list(metas)), max_len)
        columnar = collate_columns_with_positions(
            2,
            [m.sample_id for m in metas],
            np.array([m.total_tokens for m in metas], dtype=np.int64),
            max_len,
        )
        assert_collated_equal(legacy, columnar)

    @given(lengths=lengths_lists, capacity=st.integers(min_value=1, max_value=512))
    @settings(max_examples=120, deadline=None)
    def test_first_fit_matches_reference_scan(self, lengths, capacity):
        arr = np.array(lengths, dtype=np.int64)
        fast = first_fit_bin_indices(arr, capacity)
        residuals: list[int] = []
        expected = []
        for length in lengths:
            length = min(length, capacity)
            for index, residual in enumerate(residuals):
                if residual >= length:
                    residuals[index] -= length
                    expected.append(index)
                    break
            else:
                residuals.append(capacity - length)
                expected.append(len(residuals) - 1)
        assert fast.tolist() == expected

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
        legacy = collate_with_positions(Microbatch(index=1, samples=list(metas)), max_len)
        columnar = collate_columns_with_positions(
            1,
            [m.sample_id for m in metas],
            np.array([m.total_tokens for m in metas], dtype=np.int64),
            max_len,
        )
        assert_collated_equal(legacy, columnar)
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
        assert vars(columnar)["sequences"] is None and vars(columnar)["position_ids"] is None
        assert columnar.total_tokens() == int(columnar.sequence_lengths.sum())
        assert vars(columnar)["sequences"] is None and vars(columnar)["position_ids"] is None
        # Either read order gives the reference's values, and a second read
        # returns the object the first one built.
        first = columnar.position_ids if positions_first else columnar.sequences
        assert (columnar.position_ids if positions_first else columnar.sequences) is first
        assert_collated_equal(
            collate_with_positions(Microbatch(index=4, samples=metas), 96),
            columnar,
        )

    def test_columnar_collation_clips_oversized_sample_like_reference(self):
        metas = [meta(9, 100), meta(10, 20)]
        columnar = collate_columns_with_positions(0, [9, 10], np.array([100, 20]), 64)
        assert columnar.total_tokens() == 84
        assert_collated_equal(
            collate_with_positions(Microbatch(index=0, samples=metas), 64), columnar
        )

    def test_first_fit_clips_and_has_no_overflow_flag(self):
        # The flag was accepted and ignored; over-capacity samples are clipped.
        assert first_fit_bin_indices(np.array([100, 10]), 64).tolist() == [0, 1]
        with pytest.raises(TypeError):
            first_fit_bin_indices(np.array([100]), 64, allow_overflow=False)


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
        buffered = loader.summary_buffer()[:4]
        wanted = [buffered[2], buffered[0], buffered[3]]
        reply = handle.call("poll", 1, 2, [m.sample_id for m in wanted])
        assert loader.staged_count() == 2
        reply = handle.call("poll", 1, 2)
        columns = system.gcs.take(reply["key"])
        assert columns.sample_ids.tolist() == [m.sample_id for m in wanted]
        assert columns.total_tokens.tolist() == [m.total_tokens for m in wanted]
        assert reply["staged_bytes"] == columns.total_bytes() > 0
        assert loader.staged_count() == 0

    def test_take_missing_raises(self, system, small_catalog, filesystem):
        """A demand naming an unbuffered id fails before taking anything: the
        retry without that id succeeds and releases every staged byte."""
        handle = spawn_loader(system, small_catalog, filesystem, buffer_size=16)
        loader = handle.instance()
        ids = [m.sample_id for m in loader.summary_buffer()[:2]]
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
        ids = [m.sample_id for m in loader.summary_buffer()[:6]]
        handle.call("poll", 1, 2, ids[:3])
        assert loader.staged_count() == 2
        handle.call("reset_for_replay")
        assert loader.staged_count() == 0
        assert loader.ledger.live_bytes("sample_payload") == 0
        handle.call("poll", 1, 2, ids[:3])
        handle.call("poll", 2, 1, ids[3:5])
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
        sample_ids = [m.sample_id for m in loader.summary_buffer()[:4]]
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
        buffered = loader.summary_buffer()[:2]
        sample_ids = [m.sample_id for m in buffered]
        ref = handle.call("prepare", sample_ids)
        columns = system.gcs.take(ref["key"])
        assert columns.text_tokens.tolist() == [m.text_tokens for m in buffered]
        assert columns.image_tokens.tolist() == [m.image_tokens for m in buffered]
        assert columns.total_bytes() == ref["staged_bytes"]

    def test_missing_staged_sample_rejected(self, system, small_catalog, filesystem):
        """A ticket whose rows a pristine reset dropped cannot be finished:
        its continuation poll is rejected and nothing is published."""
        handle = spawn_loader(system, small_catalog, filesystem)
        ids = [m.sample_id for m in handle.instance().summary_buffer()[:4]]
        handle.call("poll", 3, 2, ids)
        handle.call("reset_for_replay")
        with pytest.raises(PlanError, match="has no ticket 3"):
            handle.call("poll", 3, 2)
        assert system.gcs.keys("prepared/") == []


# -- constructor equivalence ------------------------------------------------------------


def make_plan(tokens_by_microbatch, bucket=0):
    plan = ModulePlan(
        module="backbone",
        axis="DP",
        num_buckets=bucket + 1,
        num_microbatches=len(tokens_by_microbatch),
    )
    sid = 1
    for mb, token_list in enumerate(tokens_by_microbatch):
        samples = tuple(meta(sid + k, tokens) for k, tokens in enumerate(token_list))
        sid += len(token_list)
        plan.assignments.append(
            assignment_of(bucket, mb, samples)
        )
    return plan


def columns_for(plan):
    return prepared_rows(
        [
            (m.sample_id, m.text_tokens, m.image_tokens, m.raw_bytes)
            for assignment in plan.assignments
            for m in assignment.samples
        ]
    )


class TestConstructorEquivalence:
    @given(
        tokens=st.lists(
            st.lists(st.integers(min_value=0, max_value=900), min_size=1, max_size=10),
            min_size=1,
            max_size=4,
        ),
        pp=st.sampled_from([1, 2, 4]),
        dp=st.sampled_from([1, 2]),
        cp=st.sampled_from([1, 2, 3]),
        tp=st.sampled_from([1, 2]),
    )
    @settings(max_examples=150, deadline=None)
    def test_rank_deliveries_match_reference_collation(self, tokens, pp, dp, cp, tp):
        mesh = DeviceMesh(pp=pp, dp=dp, cp=cp, tp=tp, gpus_per_node=8)
        dp_index = dp - 1
        plan = make_plan(tokens)
        constructor = DataConstructor(
            bucket_index=0, mesh=mesh, dp_index=dp_index, max_sequence_length=512
        )
        stats = constructor.construct(0, plan, columns_for(plan))

        # Expected: the per-sample reference collator + the reference mesh walk.
        expected: dict[int, RankDelivery] = {}
        expected_tokens = 0
        for assignment in plan.bucket_assignments(0):
            collated = collate_with_positions(
                Microbatch(
                    index=assignment.microbatch_index, samples=list(assignment.samples)
                ),
                512,
            )
            expected_tokens += collated.total_tokens()
            group = mesh.ranks_where(dp=dp_index)
            for piece in build_rank_slices(collated, mesh):
                if piece.rank in group:
                    delivery = expected.setdefault(piece.rank, RankDelivery(rank=piece.rank))
                    delivery.slices.append(piece)
        assert constructor.ranks_served(0) == sorted(expected)
        for rank, reference in expected.items():
            delivered = constructor.get_batch(0, rank)
            assert delivered == reference
            # ``slice_info`` is excluded from ``==``; it must match all the same.
            assert [piece.slice_info for piece in delivered.slices] == [
                piece.slice_info for piece in reference.slices
            ]
            assert delivered.total_tokens() == reference.total_tokens()
            assert delivered.total_payload_bytes() == reference.total_payload_bytes()
        # The virtual-clock charge is the reference token count's, too.
        assert stats["collate_seconds"] == pytest.approx(
            expected_tokens * DataConstructor.COLLATE_SECONDS_PER_TOKEN, rel=1e-12
        )

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
            planned_ids = sorted(
                metadata.sample_id
                for bucket in bucket_samples(result.plan.module("backbone"))
                for microbatch in bucket
                for metadata in microbatch
            )
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
