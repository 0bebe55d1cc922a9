"""Unit tests for Source Loader actors."""

from __future__ import annotations

import pytest

from repro.actors.runtime import ActorSystem, ClusterSpec
from repro.core.source_loader import WORKER_CONTEXT_BYTES, SourceLoader
from repro.errors import PlanError
from repro.utils.units import GIB


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


def fetch(system, handle, sample_ids):
    """The production hand-off: fetch a GCS reference, resolve it once."""
    ref = handle.call("fetch_prepared_ref", sample_ids)
    return system.gcs.take(ref["key"])


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
        assert system.total_memory() == 0

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
        assert loader.staged_count() == 4
        delivered = fetch(system, handle, sample_ids)
        assert delivered.sample_ids.tolist() == sample_ids
        assert loader.staged_count() == 0

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

    def test_fetch_unstaged_sample_rejected(self, system, small_catalog, filesystem):
        handle = spawn_loader(system, small_catalog, filesystem)
        with pytest.raises(PlanError):
            handle.call("fetch_prepared_ref", [123456])

    def test_staged_memory_released_on_fetch(self, system, small_catalog, filesystem):
        handle = spawn_loader(system, small_catalog, filesystem, buffer_size=16)
        loader = handle.instance()
        ids = [m.sample_id for m in loader.summary_buffer()[:4]]
        handle.call("prepare", ids)
        staged_bytes = loader.ledger.live_bytes("sample_payload")
        assert staged_bytes > 0
        fetch(system, handle, ids)
        assert loader.ledger.live_bytes("sample_payload") == 0

    def test_deferred_transforms_reduce_transfer(self, system, small_catalog, filesystem):
        image_index = next(
            i for i, s in enumerate(small_catalog.sources()) if s.avg_image_tokens > 0
        )
        eager = spawn_loader(system, small_catalog, filesystem, source_index=image_index)
        deferred = system.create_actor(
            lambda: SourceLoader(
                small_catalog.sources()[image_index],
                filesystem,
                deferred_transforms={"image_decode"},
            ),
            name="deferred-loader",
            memory_bytes=GIB,
        )
        ids_eager = [m.sample_id for m in eager.instance().summary_buffer()[:4]]
        ids_deferred = [m.sample_id for m in deferred.instance().summary_buffer()[:4]]
        eager_bytes = eager.call("prepare", ids_eager)["staged_bytes"]
        deferred_bytes = deferred.call("prepare", ids_deferred)["staged_bytes"]
        assert deferred_bytes < eager_bytes


class TestShardingAndCheckpoint:
    def test_shards_have_disjoint_buffers(self, system, small_catalog, filesystem):
        a = spawn_loader(system, small_catalog, filesystem, shard_index=0, shard_count=2, buffer_size=8)
        b = spawn_loader(system, small_catalog, filesystem, shard_index=1, shard_count=2, buffer_size=8)
        ids_a = {m.sample_id for m in a.instance().summary_buffer()}
        ids_b = {m.sample_id for m in b.instance().summary_buffer()}
        assert not ids_a & ids_b

    def test_state_dict_roundtrip(self, system, small_catalog, filesystem):
        handle = spawn_loader(system, small_catalog, filesystem, buffer_size=8)
        loader = handle.instance()
        ids = [m.sample_id for m in loader.summary_buffer()[:4]]
        handle.call("prepare", ids)
        state = loader.state_dict()
        assert state["samples_prepared"] == 4

        fresh = SourceLoader(loader.source, filesystem, buffer_size=8)
        fresh.on_start()
        fresh.load_state_dict(state)
        assert fresh.stats.samples_prepared == 4

    def test_state_dict_source_mismatch(self, system, small_catalog, filesystem):
        a = spawn_loader(system, small_catalog, filesystem, source_index=0)
        b = spawn_loader(system, small_catalog, filesystem, source_index=1)
        with pytest.raises(PlanError):
            b.instance().load_state_dict(a.instance().state_dict())

    def test_heartbeat_payload(self, system, small_catalog, filesystem):
        handle = spawn_loader(system, small_catalog, filesystem, buffer_size=8)
        payload = handle.call("heartbeat_payload")
        assert payload["buffer_depth"] == 8
        assert payload["source"] == small_catalog.sources()[0].name

    def test_differential_checkpoint_interval(self, system, small_catalog, filesystem):
        handle = spawn_loader(system, small_catalog, filesystem, buffer_size=8)
        loader = handle.instance()
        assert not loader.should_checkpoint()
        loader._steps_since_checkpoint = loader._checkpoint_interval
        assert loader.should_checkpoint()
        loader.mark_checkpointed()
        assert not loader.should_checkpoint()


class TestAsyncPrepareProtocol:
    def test_poll_until_done_matches_sync_prepare(self, system, small_catalog, filesystem):
        sync_handle = spawn_loader(system, small_catalog, filesystem, buffer_size=16)
        async_handle = spawn_loader(system, small_catalog, filesystem, buffer_size=16)
        ids = [m.sample_id for m in sync_handle.instance().summary_buffer()[:6]]

        sync_result = sync_handle.call("prepare", ids)

        async_handle.call("prepare_async", 0, ids)
        polls = 0
        while True:
            status = async_handle.call("poll", 0, 2)
            polls += 1
            if status.get("done"):
                break
        assert polls >= 3  # chunked: 6 samples at 2 per poll
        for key in ("transform_latency_s", "wall_clock_s", "staged_bytes", "num_samples"):
            assert status[key] == pytest.approx(sync_result[key])
        # Both loaders staged the same samples and can deliver them.
        assert async_handle.instance().staged_count() == sync_handle.instance().staged_count()
        delivered = fetch(system, async_handle, ids)
        assert delivered.sample_ids.tolist() == ids

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

    def test_cancel_prepare_retires_ticket(self, system, small_catalog, filesystem):
        handle = spawn_loader(system, small_catalog, filesystem, buffer_size=8)
        ids = [m.sample_id for m in handle.instance().summary_buffer()[:4]]
        handle.call("prepare_async", 1, ids)
        handle.call("poll", 1, 2)  # partially prepared
        assert handle.call("cancel_prepare", 1)
        assert not handle.call("cancel_prepare", 1)
        assert handle.instance().inflight_tickets() == []
        # The partially staged samples can be explicitly discarded.
        staged_before = handle.instance().staged_count()
        assert staged_before == 2
        assert handle.call("discard_staged", ids) == 2
        assert handle.instance().ledger.live_bytes("sample_payload") == 0

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
    """The incremental gather RPC behind the Planner's columnar fast path."""

    @staticmethod
    def _mirror(handle):
        from repro.core.columns import ColumnarBufferCache

        loader = handle.instance()
        cache = ColumnarBufferCache(source=loader.source.name)
        reply = handle.call("buffer_delta", cache.epoch, cache.seq)
        assert reply["resync"]  # a fresh consumer always snapshots
        cache.snapshot(reply["buffer"])
        cache.epoch, cache.seq = reply["epoch"], reply["seq"]
        return cache

    @staticmethod
    def _pull(handle, cache):
        reply = handle.call("buffer_delta", cache.epoch, cache.seq)
        if reply["resync"]:
            cache.snapshot(reply["buffer"])
        else:
            cache.apply(reply["events"])
        cache.epoch, cache.seq = reply["epoch"], reply["seq"]
        return reply

    def test_deltas_reconstruct_buffer_order_exactly(self, system, small_catalog, filesystem):
        handle = spawn_loader(system, small_catalog, filesystem, buffer_size=16)
        cache = self._mirror(handle)
        for round_index in range(4):
            ids = [m.sample_id for m in handle.instance().summary_buffer()][
                round_index::5
            ]
            handle.call("prepare", ids)
            fetch(system, handle, ids)
            reply = self._pull(handle, cache)
            assert not reply["resync"]  # steady state ships only the churn
            assert len(reply["events"]) <= 2 * len(ids) + 1
            assert cache.sample_ids() == [
                m.sample_id for m in handle.instance().summary_buffer()
            ]

    def test_empty_delta_between_quiet_steps(self, system, small_catalog, filesystem):
        handle = spawn_loader(system, small_catalog, filesystem, buffer_size=8)
        cache = self._mirror(handle)
        reply = self._pull(handle, cache)
        assert not reply["resync"]
        assert reply["events"] == []

    def test_pristine_replay_bumps_epoch_and_forces_resync(
        self, system, small_catalog, filesystem
    ):
        handle = spawn_loader(system, small_catalog, filesystem, buffer_size=8)
        cache = self._mirror(handle)
        handle.call("reset_for_replay")
        reply = self._pull(handle, cache)
        assert reply["resync"]
        assert cache.sample_ids() == [
            m.sample_id for m in handle.instance().summary_buffer()
        ]

    def test_unconsumed_log_is_capped_and_degrades_to_resync(
        self, system, small_catalog, filesystem
    ):
        handle = spawn_loader(system, small_catalog, filesystem, buffer_size=4)
        cache = self._mirror(handle)
        loader = handle.instance()
        # Churn far past the log cap without ever gathering.
        for _ in range(loader._delta_cap):
            ids = [m.sample_id for m in loader.summary_buffer()[:2]]
            handle.call("prepare", ids)
            fetch(system, handle, ids)
        assert len(loader._delta_log) <= loader._delta_cap
        reply = self._pull(handle, cache)
        assert reply["resync"]
        assert cache.sample_ids() == [m.sample_id for m in loader.summary_buffer()]

    def test_declared_source_names_the_deployed_source(
        self, system, small_catalog, filesystem
    ):
        handle = spawn_loader(system, small_catalog, filesystem)
        assert handle.call("declared_source") == handle.instance().source.name
