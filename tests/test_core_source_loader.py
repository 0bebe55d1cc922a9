"""Unit tests for Source Loader actors."""

from __future__ import annotations

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.actors.actor import ActorHandle
from repro.actors.runtime import ActorSystem, ClusterSpec
from repro.core import source_loader
from repro.core.framework import MegaScaleData, TrainingJobSpec
from repro.core.source_loader import WORKER_CONTEXT_BYTES, SourceLoader
from repro.data.samples import Modality, metadata_from_record
from repro.data.sources import DataSource, SourceCursor, SourcePreprocessingProfile
from repro.data.synthetic import SAMPLE_SCHEMA, build_source_catalog, navit_like_spec
from repro.errors import PlanError
from repro.storage.filesystem import SimulatedFileSystem
from repro.transforms.pipeline import TransformPipeline
from repro.utils.units import GIB
from conftest import store_columns
from test_golden_digests import _feed


@pytest.fixture()
def system():
    return ActorSystem(ClusterSpec(accelerator_nodes=1, cpu_pods=1))


def spawn_loader(system, catalog, filesystem, source_index=0, **kwargs):
    source = catalog.sources()[source_index]
    unique = len(system.list_actor_names())
    return system.create_actor(
        lambda: SourceLoader(source, filesystem, **kwargs),
        name=f"loader-{source_index}-{kwargs.get('shard_index', 0)}-{unique}",
        memory_bytes=GIB,
    )


def fetch(system, reply):
    """The production hand-off: resolve a final poll's GCS reference once."""
    return system.gcs.take(reply["key"])


class TestLifecycle:
    def test_on_start_opens_files_and_fills_buffer(self, system, small_catalog, filesystem):
        handle = spawn_loader(system, small_catalog, filesystem, buffer_size=32, num_workers=2)
        loader = handle.instance()
        assert loader.buffer_depth() == 32
        assert loader.ledger.live_bytes("file_state") > 0
        assert loader.ledger.live_bytes("worker_context") == 2 * WORKER_CONTEXT_BYTES

    def test_stop_releases_memory(self, system, small_catalog, filesystem):
        handle = spawn_loader(system, small_catalog, filesystem, buffer_size=16)
        system.stop_actor(handle.name)
        assert sum(system.memory_by_node().values()) == 0

    def test_invalid_configuration(self, small_catalog, filesystem):
        source = small_catalog.sources()[0]
        with pytest.raises(PlanError):
            SourceLoader(source, filesystem, num_workers=0)
        with pytest.raises(PlanError):
            SourceLoader(source, filesystem, buffer_size=0)


class TestPrepareAndFetch:
    def test_prepare_stages_and_fetch_delivers(self, system, small_catalog, filesystem):
        handle = spawn_loader(system, small_catalog, filesystem, buffer_size=16)
        loader = handle.instance()
        sample_ids = [m.sample_id for m in loader.summary_buffer()[:4]]
        result = handle.call("prepare", sample_ids)
        assert result["num_samples"] == 4
        assert result["transform_latency_s"] > 0
        assert loader.staged_count() == 0
        delivered = fetch(system, result)
        assert delivered.sample_ids.tolist() == sample_ids

    def test_prepare_refills_buffer(self, system, small_catalog, filesystem):
        handle = spawn_loader(system, small_catalog, filesystem, buffer_size=16)
        loader = handle.instance()
        sample_ids = [m.sample_id for m in loader.summary_buffer()[:8]]
        handle.call("prepare", sample_ids)
        assert loader.buffer_depth() == 16

    def test_worker_parallelism_amortizes_wall_clock(self, system, small_catalog, filesystem):
        one = spawn_loader(system, small_catalog, filesystem, buffer_size=16, num_workers=1)
        four = spawn_loader(
            system, small_catalog, filesystem, buffer_size=16, num_workers=4, shard_index=0,
        )
        ids_one = [m.sample_id for m in one.instance().summary_buffer()[:8]]
        ids_four = [m.sample_id for m in four.instance().summary_buffer()[:8]]
        slow = one.call("prepare", ids_one)
        fast = four.call("prepare", ids_four)
        assert fast["wall_clock_s"] < slow["wall_clock_s"]

    def test_unknown_sample_rejected(self, system, small_catalog, filesystem):
        handle = spawn_loader(system, small_catalog, filesystem)
        with pytest.raises(PlanError):
            handle.call("prepare", [999_999])

    @pytest.mark.parametrize("bad", ["unbuffered", "repeated", "later_chunk"])
    def test_a_demand_the_buffer_cannot_serve_takes_nothing(
        self, system, small_catalog, filesystem, bad
    ):
        """A demand naming an unbuffered or repeated id raises before any row
        leaves the buffer: buffer, ledger and open tickets stay as they were."""
        handle = spawn_loader(system, small_catalog, filesystem, buffer_size=8)
        loader = handle.instance()
        ids = [m.sample_id for m in loader.summary_buffer()[:3]]
        if bad == "later_chunk":
            handle.call("poll", 5, 1, ids[:1] + [999_999])
        buffered, ledger = loader.summary_buffer(), dict(loader.ledger._live)
        tickets, staged = dict(loader._tickets), loader.staged_count()
        with pytest.raises(PlanError, match="unknown sample"):
            if bad == "unbuffered":
                handle.call("prepare", [ids[0], 999_999, ids[1]])
            elif bad == "repeated":
                handle.call("prepare", [ids[0], ids[1], ids[0]])
            else:
                handle.call("poll", 5, 1)
        assert loader.summary_buffer() == buffered
        assert dict(loader.ledger._live) == ledger
        assert loader._tickets == tickets
        assert loader.staged_count() == staged
        # Nothing stays open that would block the next demand.
        fetch(system, handle.call("prepare", ids[1:]))
        assert loader.buffer_depth() == 8

    def test_staged_memory_released_on_fetch(self, system, small_catalog, filesystem):
        handle = spawn_loader(system, small_catalog, filesystem, buffer_size=16)
        loader = handle.instance()
        ids = [m.sample_id for m in loader.summary_buffer()[:4]]
        status = handle.call("poll", 1, 2, ids)
        staged_bytes = loader.ledger.live_bytes("sample_payload")
        assert staged_bytes > 0
        assert loader.staged_count() == 2
        status = handle.call("poll", 1, 2)
        assert status["done"]
        assert status["staged_bytes"] > staged_bytes
        assert loader.ledger.live_bytes("sample_payload") == 0
        assert fetch(system, status).total_bytes() == status["staged_bytes"]

    def test_failed_hand_off_leaks_nothing(
        self, system, small_catalog, filesystem, monkeypatch
    ):
        """A final poll whose publish fails keeps its ticket open, the rows it
        took still charged; the loader's stop hook drops the ticket and
        releases them (called directly: the runtime's ``stop_actor`` would
        zero the ledger after it anyway)."""
        handle = spawn_loader(system, small_catalog, filesystem, buffer_size=16)
        loader = handle.instance()
        ids = [m.sample_id for m in loader.summary_buffer()[:4]]
        handle.call("poll", 2, 2, ids)

        def refuse(key, value, immutable=None):
            raise RuntimeError("store unavailable")

        monkeypatch.setattr(system.gcs, "put", refuse)
        with pytest.raises(RuntimeError, match="store unavailable"):
            handle.call("poll", 2, 2)
        ticket = loader._tickets[2]
        assert loader._rows[0][ticket.slots].tolist() == ids
        assert loader.staged_count() == 4
        assert loader.ledger.live_bytes("sample_payload") == ticket.staged_bytes > 0
        assert system.gcs.keys("prepared/") == []
        loader.on_stop()
        assert loader._tickets == {}
        assert loader.ledger.live_bytes("sample_payload") == 0


class TestShardingAndCheckpoint:
    def test_shards_have_disjoint_buffers(self, system, small_catalog, filesystem):
        a = spawn_loader(system, small_catalog, filesystem, shard_index=0, shard_count=2, buffer_size=8)
        b = spawn_loader(system, small_catalog, filesystem, shard_index=1, shard_count=2, buffer_size=8)
        ids_a = {m.sample_id for m in a.instance().summary_buffer()}
        ids_b = {m.sample_id for m in b.instance().summary_buffer()}
        assert not ids_a & ids_b

    def test_state_dict_source_mismatch(self, system, small_catalog, filesystem):
        """A replay checkpoint of another source or another shard is refused."""
        loader = spawn_loader(
            system, small_catalog, filesystem, shard_index=0, shard_count=2
        ).instance()
        other_source = spawn_loader(
            system, small_catalog, filesystem, source_index=1, shard_index=0, shard_count=2
        ).instance()
        other_shard = spawn_loader(
            system, small_catalog, filesystem, shard_index=1, shard_count=2
        ).instance()
        before = loader.replay_checkpoint()
        for snapshot, match in (
            (other_source.replay_checkpoint(), "source"),
            (other_shard.replay_checkpoint(), "shard"),
        ):
            with pytest.raises(PlanError, match=match):
                loader.restore_replay_checkpoint(snapshot)
        assert loader.replay_checkpoint() == before

    def test_heartbeat_payload(self, system, small_catalog, filesystem):
        handle = spawn_loader(system, small_catalog, filesystem, buffer_size=8)
        payload = handle.call("heartbeat_payload")
        assert payload["buffer_depth"] == 8
        assert payload["source"] == small_catalog.sources()[0].name


class TestAsyncPrepareProtocol:
    def test_poll_until_done_matches_sync_prepare(self, system, small_catalog, filesystem):
        sync_handle = spawn_loader(system, small_catalog, filesystem, buffer_size=16)
        async_handle = spawn_loader(system, small_catalog, filesystem, buffer_size=16)
        ids = [m.sample_id for m in sync_handle.instance().summary_buffer()[:6]]

        sync_result = sync_handle.call("prepare", ids)
        want = fetch(system, sync_result)

        with pytest.raises(PlanError, match="first poll must carry"):
            async_handle.call("poll", 0, 2)
        status = async_handle.call("poll", 0, 2, ids)  # accepts the ticket
        polls = 1
        while not status["done"]:
            status = async_handle.call("poll", 0, 2)
            polls += 1
        assert polls == 3  # chunked: 6 samples at 2 per poll
        for key in ("transform_latency_s", "wall_clock_s", "staged_bytes", "num_samples"):
            assert status[key] == pytest.approx(sync_result[key])
        # The final poll handed the samples off: nothing stays staged and its
        # key resolves to the columns ``prepare`` gave.
        loader = async_handle.instance()
        assert loader._tickets == {}
        assert loader.staged_count() == sync_handle.instance().staged_count() == 0
        got = system.gcs.take(status["key"])
        assert got.sample_ids.tolist() == want.sample_ids.tolist() == ids
        assert np.array_equal(got.transferred_bytes, want.transferred_bytes)
        assert system.gcs.keys("prepared/") == []

    def test_duplicate_ticket_rejected(self, system, small_catalog, filesystem):
        handle = spawn_loader(system, small_catalog, filesystem, buffer_size=8)
        ids = [m.sample_id for m in handle.instance().summary_buffer()[:2]]
        handle.call("prepare_async", 7, ids)
        with pytest.raises(PlanError):
            handle.call("prepare_async", 7, ids)

    def test_poll_unknown_ticket_rejected(self, system, small_catalog, filesystem):
        handle = spawn_loader(system, small_catalog, filesystem, buffer_size=8)
        with pytest.raises(PlanError):
            handle.call("poll", 99)

    def test_replay_demands_reproduces_buffer_state(self, system, small_catalog, filesystem):
        primary = spawn_loader(system, small_catalog, filesystem, buffer_size=12)
        replica = spawn_loader(system, small_catalog, filesystem, buffer_size=12)
        first = [m.sample_id for m in primary.instance().summary_buffer()[:3]]
        primary.call("prepare", first)
        second = [m.sample_id for m in primary.instance().summary_buffer()[:3]]
        primary.call("prepare", second)

        # Replaying the same demand history (without staging) must leave the
        # replica's buffer identical to the primary's.
        assert replica.call("replay_demands", first) == 3
        assert replica.call("replay_demands", second) == 3
        primary_ids = [m.sample_id for m in primary.instance().summary_buffer()]
        replica_ids = [m.sample_id for m in replica.instance().summary_buffer()]
        assert primary_ids == replica_ids
        assert replica.instance().staged_count() == 0
        # Ids from other shards are ignored rather than failing.
        assert replica.call("replay_demands", [10**9]) == 0


class TestBufferDeltaProtocol:
    """The gather RPC behind the Planner's per-change charge."""

    def test_empty_delta_between_quiet_steps(self, system, small_catalog, filesystem):
        handle = spawn_loader(system, small_catalog, filesystem, buffer_size=8)
        assert handle.call("buffer_delta")["resync"]  # a fresh instance resyncs
        reply = handle.call("buffer_delta")
        assert not reply["resync"]
        assert reply["changes"] == 0
        assert reply_records(reply) == handle.instance().summary_buffer()

    def test_gather_replies_the_rows_the_loader_buffers(
        self, system, small_catalog, filesystem
    ):
        """The reply copies the loader's buffered id and token columns: the
        loader's later churn never reaches it."""
        handle = spawn_loader(system, small_catalog, filesystem, buffer_size=8)
        loader = handle.instance()
        reply = handle.call("buffer_delta")
        held = loader.summary_buffer()
        assert reply["sample_ids"].tolist() == [m.sample_id for m in held]
        assert reply["text_tokens"].tolist() == [m.text_tokens for m in held]
        assert reply["image_tokens"].tolist() == [m.image_tokens for m in held]
        handle.call("prepare", [m.sample_id for m in held[:2]])
        handle.call("refill")
        assert reply_records(reply) == held

    def test_declared_source_names_the_deployed_source(
        self, system, small_catalog, filesystem
    ):
        handle = spawn_loader(system, small_catalog, filesystem)
        assert handle.call("declared_source") == handle.instance().source.name


# -- per chunk, not per sample: properties of the chunked hot path ----------------------

PROPERTY_FILESYSTEM = SimulatedFileSystem()
#: Six heterogeneous sources (image, text, video, audio) of 64 samples each.
PROPERTY_CATALOG = build_source_catalog(
    navit_like_spec(num_sources=6, samples_per_source=64, seed=7), PROPERTY_FILESYSTEM
)


def fresh_system():
    return ActorSystem(ClusterSpec(accelerator_nodes=1, cpu_pods=1))


@given(
    source_index=st.integers(0, 5),
    shard_count=st.integers(1, 4),
    buffer_size=st.sampled_from([8, 24, 256]),
    num_workers=st.integers(1, 3),
    picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=40),
)
@settings(max_examples=40, deadline=None)
def test_sync_prepare_equals_async_polls_of_any_chunk_size(
    source_index, shard_count, buffer_size, num_workers, picks
):
    """``prepare(ids)`` and ``poll(k)`` calls are the same work, chunked: the
    first poll carries the ids, the final one the key, as ``prepare``'s does."""
    system = fresh_system()
    options = dict(buffer_size=buffer_size, num_workers=num_workers, shard_count=shard_count)
    sync = spawn_loader(system, PROPERTY_CATALOG, PROPERTY_FILESYSTEM, source_index, **options)
    buffered = [m.sample_id for m in sync.instance().summary_buffer()]
    # Shards of 16 rows against a 24- or 256-row buffer hold the whole shard.
    assert len(buffered) == min(buffer_size, math.ceil(64 / shard_count))
    ids = list(dict.fromkeys(buffered[pick % len(buffered)] for pick in picks))
    expected = sync.call("prepare", ids)
    want = fetch(system, expected)
    for key in ("key", "done", "chunk_wall_clock_s"):
        expected.pop(key)
    for chunk in (1, 8, 16, len(ids)):
        chunked = spawn_loader(
            system, PROPERTY_CATALOG, PROPERTY_FILESYSTEM, source_index, **options
        )
        with pytest.raises(PlanError):
            chunked.call("poll", 3, chunk)  # no ticket until a poll carries the ids
        polls, wall_clock = 0, 0.0
        while True:
            reply = chunked.call("poll", 3, chunk, None if polls else ids)
            polls += 1
            wall_clock += reply.pop("chunk_wall_clock_s")
            if reply.pop("done"):
                break
        assert polls == math.ceil(len(ids) / chunk)
        key = reply.pop("key")
        assert reply == expected  # floats included: no tolerance
        assert wall_clock == pytest.approx(expected["wall_clock_s"])
        a, b = sync.instance(), chunked.instance()
        assert a.staged_count() == b.staged_count() == 0
        assert a.ledger._live == b.ledger._live
        assert a.summary_buffer() == b.summary_buffer()
        assert a.replay_checkpoint()["cursor"] == b.replay_checkpoint()["cursor"]
        assert (a.stats.samples_prepared, a.stats.samples_delivered) == (
            b.stats.samples_prepared,
            b.stats.samples_delivered,
        )
        # Hand-off: the final poll's key resolves to equal columns.
        got = system.gcs.take(key)
        for column in ("sample_ids", "text_tokens", "image_tokens", "transferred_bytes"):
            assert np.array_equal(getattr(want, column), getattr(got, column))
        assert system.gcs.keys("prepared/") == []


@given(
    source_index=st.integers(0, 5),
    shard_count=st.integers(1, 4),
    buffer_size=st.sampled_from([5, 16, 40, 256]),
    demands=st.lists(st.lists(st.integers(0, 10**6), max_size=12), min_size=1, max_size=8),
)
@settings(max_examples=60, deadline=None)
def test_chunked_refill_equals_the_per_row_loop(source_index, shard_count, buffer_size, demands):
    """Buffer order, cursor position (wrap-around probe included) and ledger bytes."""
    system = fresh_system()
    source = PROPERTY_CATALOG.sources()[source_index]
    handle = spawn_loader(
        system, PROPERTY_CATALOG, PROPERTY_FILESYSTEM, source_index,
        buffer_size=buffer_size, shard_count=shard_count,
    )
    loader = handle.instance()
    cursor = SourceCursor(source, PROPERTY_FILESYSTEM, shard_count=shard_count)
    model: dict[int, object] = {}

    def per_row_refill():
        while len(model) < buffer_size:
            metadata = cursor.next_metadata()
            if metadata.sample_id in model:
                break
            model[metadata.sample_id] = metadata

    per_row_refill()
    for picks in demands:
        assert loader.summary_buffer() == list(model.values())
        assert loader.replay_checkpoint()["cursor"] == cursor.state_dict()
        assert loader.ledger.live_bytes("prefetch_buffer") == 96 * len(model)
        ids = list(dict.fromkeys(list(model)[pick % len(model)] for pick in picks))
        handle.call("replay_demands", ids)
        for sample_id in ids:
            del model[sample_id]
        if ids:
            per_row_refill()
    assert loader.summary_buffer() == list(model.values())
    assert loader.replay_checkpoint()["cursor"] == cursor.state_dict()


@given(
    buffer_size=st.sampled_from([5, 16, 40]),
    shard_count=st.integers(1, 3),
    ops=st.lists(
        st.tuples(
            st.sampled_from(
                ["gather", "refill", "poll", "first_poll", "continue", "prepare",
                 "replay", "reset", "restore"]
            ),
            st.lists(st.integers(0, 10**6), max_size=8),
        ),
        max_size=16,
    ),
)
@settings(max_examples=40, deadline=None)
def test_gather_reports_the_buffer_its_changes_and_rebuilds(buffer_size, shard_count, ops):
    """Every ``buffer_delta`` reply carries the buffer; ``changes`` is the rows
    added plus the rows removed since the previous reply; ``resync`` is set on
    exactly the first reply after a rebuild (start, pristine reset, restore).

    The ledger is conserved through tickets left open, continued, failed and
    dropped: after every op ``sample_payload`` is the bytes of the rows the
    open tickets hold and ``prefetch_buffer`` is the buffered rows' share;
    after ``stop`` both are 0."""
    system = fresh_system()
    handle = spawn_loader(
        system, PROPERTY_CATALOG, PROPERTY_FILESYSTEM, 0,
        buffer_size=buffer_size, shard_count=shard_count,
    )
    loader = handle.instance()
    snapshot = loader.replay_checkpoint()
    consumed: list[int] = []
    open_tickets: list[int] = []
    changes, rebuilt = 0, True

    def assert_ledger_conserved():
        held = [slot for entry in loader._tickets.values() for slot in entry.slots]
        assert loader.ledger.live_bytes("sample_payload") == int(loader._rows[4][held].sum())
        assert loader.ledger.live_bytes("prefetch_buffer") == (
            source_loader.BUFFERED_METADATA_BYTES * loader.buffer_depth()
        )

    for ticket, (op, picks) in enumerate([*ops, ("gather", [])]):
        assert_ledger_conserved()
        buffered = [m.sample_id for m in loader.summary_buffer()]
        ids = list(dict.fromkeys(buffered[pick % len(buffered)] for pick in picks if buffered))
        added = loader.stats.samples_buffered
        if op == "gather":
            reply = handle.call("buffer_delta")
            assert reply_records(reply) == loader.summary_buffer()
            assert reply["resync"] is rebuilt
            if not rebuilt:
                assert reply["changes"] == changes
            changes, rebuilt = 0, False
            continue
        if op == "refill":
            handle.call("refill")
        elif op == "poll" and ids:
            reply = handle.call("poll", ticket, 3, ids)
            while not reply["done"]:
                reply = handle.call("poll", ticket, 3)
            system.gcs.take(reply["key"])
        elif op == "first_poll" and ids:
            # Leaves the ticket open; a continuation may find its later ids
            # taken by another demand in between.
            reply = handle.call("poll", ticket, 2, ids)
            changes += len(ids[:2])
            if reply["done"]:
                system.gcs.take(reply["key"])
            else:
                open_tickets.append(ticket)
        elif op == "continue" and open_tickets and picks:
            pending = open_tickets[picks[0] % len(open_tickets)]
            remaining = loader._tickets[pending].remaining()
            try:
                reply = handle.call("poll", pending, 2)
            except PlanError:
                pass
            else:
                if reply["done"]:
                    system.gcs.take(reply["key"])
                    open_tickets.remove(pending)
            left = loader._tickets[pending].remaining() if pending in open_tickets else 0
            changes += remaining - left
        elif op == "prepare" and ids:
            system.gcs.take(handle.call("prepare", ids)["key"])
            changes += len(ids)
        elif op == "replay":
            # An id consumed earlier is known but may no longer be buffered.
            ids += [sample_id for sample_id in consumed[-2:] if sample_id not in ids]
            handle.call("replay_demands", ids, False)
        elif op == "reset":
            handle.call("reset_for_replay")
            rebuilt, consumed, open_tickets = True, [], []
        elif op == "restore":
            handle.call("restore_replay_checkpoint", snapshot)
            rebuilt, consumed, open_tickets = True, [], []
        if op in ("poll", "replay"):
            consumed += ids
            changes += len(set(ids) & set(buffered))
        changes += loader.stats.samples_buffered - added
    assert_ledger_conserved()
    loader.on_stop()  # the stop hook itself, not the runtime's release_all
    assert loader.ledger.live_bytes("sample_payload") == 0
    assert loader.ledger.live_bytes("prefetch_buffer") == 0


# -- a row is costed once per process, per cost key ------------------------------------


def reply_records(reply):
    """The records of a ``buffer_delta`` reply's rows, built by its reader."""
    return reply["records"](reply["sample_ids"].tolist())


def fresh_catalog(samples_per_source=64):
    """A catalog over its own files: rows nothing has read or costed yet."""
    filesystem = SimulatedFileSystem()
    spec = navit_like_spec(num_sources=6, samples_per_source=samples_per_source, seed=7)
    return build_source_catalog(spec, filesystem), filesystem


def test_loaders_of_one_source_share_one_cost_key():
    """Every stage runs on the loader, so the key follows the source alone:
    the shards and mirrors of a source reuse each other's row costs."""
    catalog, filesystem = fresh_catalog()
    first, second = catalog.sources()[:2]
    key = SourceLoader(first, filesystem)._cost_key
    member = SourceLoader(first, filesystem, num_workers=3, shard_index=1, shard_count=2)
    assert member._cost_key == key
    assert SourceLoader(second, filesystem)._cost_key != key


def test_concurrent_first_reads_cost_every_row_whole():
    """Under ``backend="wallclock"`` a canonical and its mirror can refill at
    once: threads (more than cores) read the same fresh rows through their own
    cursors, released together, and each row carries its latency and its
    bytes, as read alone."""
    import os
    import sys
    import threading

    catalog, filesystem = fresh_catalog(samples_per_source=256)
    reference, reference_fs = fresh_catalog(samples_per_source=256)
    readers = (os.cpu_count() or 1) + 1
    chunk = 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for index, source in enumerate(catalog.sources()):
            loader = SourceLoader(source, filesystem)
            key, cost = loader._cost_key, loader._cost_columns
            cursors = [SourceCursor(source, filesystem) for _ in range(readers)]
            expected = SourceCursor(reference.sources()[index], reference_fs).take_costed(
                source.num_samples, key, cost
            )
            barrier = threading.Barrier(readers, timeout=30)
            got = [[] for _ in range(readers)]

            def read(reader):
                for _ in range(source.num_samples // chunk):
                    barrier.wait()
                    got[reader].append(cursors[reader].take_costed(chunk, key, cost))

            threads = [threading.Thread(target=read, args=(r,)) for r in range(readers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            expected = [column.tolist() for column in expected]
            for parts in got:
                assert [sum((part[i].tolist() for part in parts), []) for i in range(5)] == expected
    finally:
        sys.setswitchinterval(interval)


#: sha256 over ``(step, rank, microbatch, token_count, payload_bytes)`` of three
#: ``vlm_example`` steps, recorded at 09d8b23 where ``apply`` ran per sample and
#: every collation materialised its position ids and segment tables.
THREE_STEP_DELIVERIES = "c915175012f9d0dc64cbc7d1ea23ba4e2263502f7289cde16a01b1e80b55dac1"


def three_step_vlm_deliveries(prefetch_depth: int) -> str:
    """Digest of what three ``vlm_example`` steps deliver (dead-store regressions)."""
    system = MegaScaleData.deploy(
        replace(TrainingJobSpec.vlm_example(), prefetch_depth=prefetch_depth)
    )
    deliveries = hashlib.sha256()
    try:
        for _ in range(3):
            result = system.run_step()
            for rank in sorted(result.deliveries):
                for piece in result.deliveries[rank].slices:
                    _feed(
                        deliveries,
                        (result.step, rank, piece.microbatch_index,
                         piece.token_count, piece.payload_bytes),
                    )
    finally:
        system.shutdown()
    return deliveries.hexdigest()


class TestMetadataOnlyPrepare:
    """The loader costs transforms by columns: the one-row ``run`` is the
    reference, not the hot path."""

    @pytest.mark.parametrize("prefetch_depth", [0, 2])
    def test_no_payload_is_built_on_the_step_path(self, monkeypatch, prefetch_depth):
        def dead_store(self, metadata):
            raise AssertionError("TransformPipeline.run ran on the step path")

        monkeypatch.setattr(TransformPipeline, "run", dead_store)
        assert three_step_vlm_deliveries(prefetch_depth) == THREE_STEP_DELIVERIES


# -- vectorized row costs against the per-sample pipeline -------------------------------


cost_rows = st.lists(
    st.fixed_dictionaries({
        "modality": st.sampled_from(["text", "image", "video", "audio"]),
        "text_tokens": st.integers(0, 9000),
        # Zero-patch images and images past ``ImageCrop.max_patches`` included.
        "image_tokens": st.one_of(st.integers(0, 600), st.integers(16000, 17000)),
        "video_frames": st.integers(0, 300),
        "audio_seconds": st.floats(0.0, 100.0, allow_nan=False),
        "raw_bytes": st.integers(0, 10**7),
        "decoded_bytes": st.integers(0, 10**8),
    }),
    min_size=1,
    max_size=30,
)


@given(
    rows=cost_rows,
    modality=st.sampled_from(list(Modality)),
    cost_per_token=st.floats(0.01, 500.0, allow_nan=False),
    fixed_cost_s=st.floats(0.0, 0.01, allow_nan=False),
    rows_per_group=st.integers(1, 12),
)
@settings(max_examples=150, deadline=None)
def test_vectorized_row_costs_equal_the_per_sample_pipeline(
    rows, modality, cost_per_token, fixed_cost_s, rows_per_group
):
    """A loader's row-group costs are, row for row and bit for bit, what
    ``TransformPipeline.run`` charges and ships for that sample, scaled by the
    source's cost profile: every modality's chain, crop-capped images, and
    row groups mixing modalities the source's chain treats differently."""
    records = [{"sample_id": 500 + index, **row} for index, row in enumerate(rows)]
    columns = {name: np.array([record[name] for record in records]) for name in records[0]}
    filesystem = SimulatedFileSystem()
    file = store_columns(filesystem, "/costs/0", columns, SAMPLE_SCHEMA, rows_per_group)
    source = DataSource(
        name="costs", modality=modality, paths=(file.path,), num_samples=len(records),
        profile=SourcePreprocessingProfile(cost_per_token=cost_per_token, fixed_cost_s=fixed_cost_s),
    )
    loader = SourceLoader(source, filesystem)
    cursor = SourceCursor(source, filesystem)
    ids, text, image, latency, size = cursor.take_costed(
        len(records), loader._cost_key, loader._cost_columns
    )
    expected = [
        loader.pipeline.run(metadata_from_record(record, source.name)) for record in records
    ]
    assert ids.tolist() == [record["sample_id"] for record in records]
    assert text.tolist() == [record["text_tokens"] for record in records]
    # The hand-off carries the stored patches, not the crop's.
    assert image.tolist() == [record["image_tokens"] for record in records]
    assert latency.tolist() == [
        latency_s * loader._latency_scale + fixed_cost_s for latency_s, _ in expected
    ]
    assert size.tolist() == [transferred for _, transferred in expected]


class TestReplaySnapshots:
    def test_a_snapshot_carries_ids_and_a_restore_costs_nothing(
        self, system, small_catalog, filesystem, monkeypatch
    ):
        """The snapshot holds the cursor and the buffered ids (Python ints);
        restoring reads the rows' costs back from their row groups, so a
        restored loader charges exactly what the original would."""
        original = spawn_loader(system, small_catalog, filesystem, buffer_size=12).instance()
        snapshot = original.replay_checkpoint()
        assert set(snapshot) == {"source", "shard_index", "shard_count", "cursor", "buffer"}
        assert snapshot["buffer"] == [m.sample_id for m in original.summary_buffer()]
        assert all(type(sample_id) is int for sample_id in snapshot["buffer"])

        restored = spawn_loader(system, small_catalog, filesystem, buffer_size=12).instance()
        costed = []
        plain = SourceLoader._cost_columns
        monkeypatch.setattr(
            SourceLoader, "_cost_columns",
            lambda loader, columns: costed.append(1) or plain(loader, columns),
        )
        restored.restore_replay_checkpoint(snapshot)
        assert costed == []
        assert restored.summary_buffer() == original.summary_buffer()
        ids = snapshot["buffer"][1:7]
        replies = [handle_of(system, loader).call("prepare", ids) for loader in (original, restored)]
        for reply in replies:
            system.gcs.take(reply.pop("key"))
        assert replies[0] == replies[1]


def handle_of(system, loader):
    return ActorHandle(system, loader.actor_name)
