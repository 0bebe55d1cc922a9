"""Elastic loader fleet: end-to-end ScalingPlan application.

The acceptance property of the elastic control loop: fleet changes are
behaviour-invisible.  Batches delivered across mid-run scale-ups AND
scale-downs are byte-identical to a frozen-fleet synchronous run — spawning
or retiring loader actors moves *timing* only.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.actors.runtime import ActorSystem, ClusterSpec
from repro.core.framework import MegaScaleData, TrainingJobSpec
from repro.core.loader_fleet import LoaderFleet
from repro.core.plans import LoadingPlan
from repro.core.source_loader import SourceLoader
from repro.data.mixture import MixturePhase, MixtureSchedule
from repro.errors import ConfigurationError
from repro.utils.units import GIB
from conftest import buffered_ids


def bursty_mixture():
    """Uniform → hot burst on src000 → cool-down (drives up then down)."""
    return MixtureSchedule.staged(
        [
            MixturePhase(0, {"navit_data/src000": 0.8, "navit_data/src001": 0.1,
                             "navit_data/src002": 0.1}),
            MixturePhase(6, {"navit_data/src000": 0.05, "navit_data/src001": 0.475,
                             "navit_data/src002": 0.475}),
        ]
    )


def make_job(prefetch_depth: int, elastic: bool, seed: int = 3, **overrides):
    spec = dict(
        pp=1, dp=2, cp=1, tp=1, encoder=None, strategy="backbone_balance",
        samples_per_dp_step=8, num_microbatches=2, num_sources=3,
        samples_per_source=48, seed=seed, prefetch_depth=prefetch_depth,
        mixture=bursty_mixture(), enable_autoscaler=elastic,
    )
    spec.update(overrides)
    return TrainingJobSpec(**spec)


def arm_scaler(system, consecutive=2, window=3):
    scaler = system.planner_handle.instance().scaler
    scaler.consecutive_intervals = consecutive
    scaler.window = window
    return scaler


def delivery_signature(result):
    """Byte-level signature of a step's per-rank deliveries."""
    return {
        rank: [
            (piece.rank, piece.microbatch_index, piece.token_count,
             piece.payload_bytes, piece.metadata_only, piece.replicated_from)
            for piece in delivery.slices
        ]
        for rank, delivery in sorted(result.deliveries.items())
    }


class TestElasticByteIdentity:
    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("depth", [1, 2])
    def test_batches_byte_identical_across_scale_up_and_down(self, seed, depth):
        """The acceptance property: an elastic prefetching run that scales up
        during the burst and back down afterwards delivers exactly the same
        batches as a frozen-fleet synchronous run."""
        frozen = MegaScaleData.deploy(make_job(0, elastic=False, seed=seed))
        elastic = MegaScaleData.deploy(make_job(depth, elastic=True, seed=seed))
        arm_scaler(elastic)
        try:
            for step in range(14):
                a = frozen.run_step()
                b = elastic.run_step()
                assert a.step == b.step == step
                assert a.plan.source_demands == b.plan.source_demands
                assert delivery_signature(a) == delivery_signature(b)
            # The run genuinely exercised both directions of elasticity.
            assert elastic.fleet.spawn_count() >= 1
            assert elastic.fleet.retire_count() >= 1
            # The frozen fleet never moved.
            assert frozen.fleet.total_members() == len(frozen.loader_handles)
            assert frozen.fleet.spawn_count() == 0
        finally:
            frozen.shutdown()
            elastic.shutdown()

    def test_sync_elastic_matches_frozen(self):
        """Elasticity on the synchronous path is behaviour-invisible too."""
        frozen = MegaScaleData.deploy(make_job(0, elastic=False))
        elastic = MegaScaleData.deploy(make_job(0, elastic=True))
        arm_scaler(elastic)
        try:
            for _ in range(10):
                a = frozen.run_step()
                b = elastic.run_step()
                assert delivery_signature(a) == delivery_signature(b)
            assert elastic.fleet.spawn_count() >= 1
        finally:
            frozen.shutdown()
            elastic.shutdown()

    def test_mirror_failure_on_sync_path_recovers_byte_identically(self):
        """Regression: a dead mirror on the synchronous (depth-0) elastic
        path is recovered inside run_step — no unhandled ActorDead — and the
        delivered batches still match the frozen fleet's."""
        frozen = MegaScaleData.deploy(make_job(0, elastic=False))
        elastic = MegaScaleData.deploy(make_job(0, elastic=True))
        arm_scaler(elastic)
        killed = False
        try:
            for step in range(12):
                a = frozen.run_step()
                if not killed and elastic.fleet.spawn_count() >= 1:
                    mirror = elastic.fleet.changes[0].actor
                    if mirror in elastic.system.list_actor_names():
                        elastic.system.failures.fail(mirror)
                        killed = True
                b = elastic.run_step()
                assert delivery_signature(a) == delivery_signature(b), step
            assert killed
            assert any(
                event.kind == "restart" for event in elastic.fault_manager.events()
            )
        finally:
            frozen.shutdown()
            elastic.shutdown()

    def test_mirror_failure_mid_prefetch_recovers_byte_identically(self):
        """A spawned mirror dying mid-prefetch is restarted in place and the
        delivered batches still match the frozen-fleet synchronous run."""
        frozen = MegaScaleData.deploy(make_job(0, elastic=False))
        elastic = MegaScaleData.deploy(make_job(2, elastic=True))
        arm_scaler(elastic)
        killed = False
        try:
            for step in range(12):
                a = frozen.run_step()
                if not killed and elastic.fleet.spawn_count() >= 1:
                    mirror = elastic.fleet.changes[0].actor
                    if mirror in elastic.system.list_actor_names():
                        elastic.system.failures.fail(mirror)
                        killed = True
                b = elastic.run_step()
                assert delivery_signature(a) == delivery_signature(b), step
            assert killed
        finally:
            frozen.shutdown()
            elastic.shutdown()


class TestFleetMechanics:
    def test_scale_source_spawns_and_retires_through_placement(self):
        system = MegaScaleData.deploy(make_job(0, elastic=True))
        try:
            source = "navit_data/src001"
            group = system.fleet._by_source[source][0]
            node_free = {
                node.name: node.available_cpu for node in system.system.nodes
            }
            assert system.scale_source(source, 3) == 3
            # Mirrors were placed: node reservations grew somewhere.
            grew = [
                node.name
                for node in system.system.nodes
                if node.available_cpu < node_free[node.name]
            ]
            assert grew
            # Members run in deferred-refill group mode.
            assert all(member.instance().deferred_refill for member in group.members)
            assert system.scale_source(source, 1) == 1
            # Reservations were released and the canonical is back to legacy.
            assert all(
                node.available_cpu == node_free[node.name]
                for node in system.system.nodes
            )
            assert not group.canonical.instance().deferred_refill
            assert system.fleet.retire_count() == 2
            # Canonicals are floored: a target below the shard count clamps.
            assert system.scale_source(source, 1) == 1
            with pytest.raises(ConfigurationError):
                system.scale_source(source, 0)
        finally:
            system.shutdown()

    def test_group_members_stay_byte_identical_mirrors(self):
        """After steps of split demands + group sync, every member's buffer
        is exactly the canonical's buffer."""
        system = MegaScaleData.deploy(make_job(0, elastic=True))
        try:
            system.run_step()
            source = "navit_data/src000"
            system.scale_source(source, 3)
            for _ in range(4):
                system.run_step()
            for group in system.fleet._by_source[source]:
                canonical_buffer = buffered_ids(group.canonical.instance())
                for member in group.members[1:]:
                    mirror_buffer = buffered_ids(member.instance())
                    assert mirror_buffer == canonical_buffer
                    # The mirror actually did a share of the transform work.
                    assert member.instance().stats.samples_prepared > 0
        finally:
            system.shutdown()

    def test_placement_rejection_reconciles_scaler(self):
        """Node budgets gate scale-up: with the cluster saturated, directives
        are rejected, recorded, and the scaler adopts the true fleet size."""
        system = MegaScaleData.deploy(make_job(0, elastic=True))
        scaler = arm_scaler(system, consecutive=2)
        try:
            # Saturate every node's CPU so no new loader can fit.
            for node in system.system.nodes:
                node.reserve("filler", node.available_cpu - 0.25, 0)
            for _ in range(6):
                system.run_step()
            assert system.fleet.rejection_count() >= 1
            assert system.fleet.spawn_count() == 0
            assert system.fleet.total_members() == len(system.loader_handles)
            # The scaler's view tracks the deployed fleet, not the directive.
            for source in scaler.plan.configs:
                assert scaler.current_actors(source) == system.fleet.member_count(source)
            rejects = [e for e in system.overlap.fleet_events() if e.kind == "reject"]
            assert rejects and rejects[0].source == "navit_data/src000"
        finally:
            system.shutdown()

    def test_flush_pending_resets_mirrors_too(self):
        """set_mixture(flush_pending=True) after a scale-up stays deterministic:
        the flushed elastic pipeline re-plans exactly like a synchronous run
        switching mixtures at the same step."""
        new_mix = MixtureSchedule.static(
            {"navit_data/src000": 0.2, "navit_data/src001": 0.6, "navit_data/src002": 0.2}
        )
        frozen = MegaScaleData.deploy(make_job(0, elastic=False))
        elastic = MegaScaleData.deploy(make_job(2, elastic=True))
        arm_scaler(elastic)
        try:
            for _ in range(5):
                a = frozen.run_step()
                b = elastic.run_step()
                assert delivery_signature(a) == delivery_signature(b)
            assert elastic.fleet.spawn_count() >= 1
            frozen.set_mixture(new_mix)
            elastic.set_mixture(new_mix, flush_pending=True)
            for _ in range(4):
                a = frozen.run_step()
                b = elastic.run_step()
                assert delivery_signature(a) == delivery_signature(b)
        finally:
            frozen.shutdown()
            elastic.shutdown()


class TestManualScaleUnderPrefetch:
    """``scale_source`` mid-prefetch, then a pipeline flush while the mirror lives.

    Regression: the mirror clones its canonical's *live* buffer, which at
    depth 2 already has the in-flight steps' plans applied, but the spawn
    (and so the mirror's bootstrap baseline) was stamped with the consume
    position; the flush restored that baseline, replayed plans it already
    contained, and the next poll raised ``PlanError: loader …/0m1 was asked
    for unknown sample``.  Sync never prefetches, so depth 0 is the reference.
    """

    @staticmethod
    def drive(depth: int, gap: int) -> list:
        job = TrainingJobSpec.text_example()
        job.prefetch_depth = depth
        system = MegaScaleData.deploy(job)
        names = system.catalog.names()
        delivered = []

        def steps(count):
            for _ in range(count):
                result = system.run_step()
                delivered.append((result.plan.source_demands, delivery_signature(result)))

        try:
            steps(3)
            frontier = system.plan_frontier()
            assert frontier == system.step + (depth + 1 if depth else 0)
            assert system.scale_source(names[0], 2) == 2
            assert system.fleet.changes[-1].step == frontier
            steps(gap)
            system.set_mixture(
                MixtureSchedule.static(dict(zip(names, (0.7, 0.1, 0.1, 0.1)))),
                flush_pending=True,
            )
            steps(3)
            assert system.fleet.member_count(names[0]) >= 2  # the mirror lived through it
            return delivered
        finally:
            system.shutdown()

    @pytest.mark.parametrize("gap", [0, 1, 2, 3])
    def test_flush_after_scale_source_matches_sync(self, gap):
        assert self.drive(2, gap) == self.drive(0, gap)


class TestElasticReporting:
    def test_run_training_reports_utilization_and_elasticity(self):
        system = MegaScaleData.deploy(make_job(1, elastic=True))
        arm_scaler(system)
        try:
            summary = system.run_training(num_steps=8)
            for key in (
                "peak_node_cpu_utilization",
                "mean_node_cpu_utilization",
                "peak_node_memory_utilization",
                "mean_node_memory_utilization",
                "utilization_samples",
                "fleet_spawns",
                "fleet_retires",
                "fleet_rejections",
                "loader_actors",
                "peak_loader_actors",
            ):
                assert key in summary
            assert summary["utilization_samples"] == 8.0
            assert summary["fleet_spawns"] >= 1.0
            assert summary["peak_loader_actors"] >= summary["fleet_spawns"] + len(
                system.loader_handles
            ) - summary["fleet_retires"]
            assert 0.0 < summary["peak_node_cpu_utilization"] <= 1.0
            assert (
                summary["peak_node_cpu_utilization"]
                >= summary["mean_node_cpu_utilization"]
            )
            # Overlap reconciliation still balances across fleet changes.
            ledger = system.overlap
            assert ledger.hidden_total_s() + ledger.exposed_total_s() == pytest.approx(
                ledger.fetch_total_s(), abs=1e-9
            )
        finally:
            system.shutdown()

    def test_fleet_events_on_timeline_and_trainer_stall_log(self):
        system = MegaScaleData.deploy(make_job(1, elastic=True))
        arm_scaler(system)
        try:
            for _ in range(6):
                system.run_step(simulate=True)
            spawns = [
                event
                for event in system.system.timeline.events()
                if event.metadata.get("role") == "fleet" and event.name == "spawn"
            ]
            assert spawns
            assert all(event.duration == 0.0 for event in spawns)
            assert all(event.metadata.get("node") for event in spawns)
            # The trainer's stall log tracks fleet size per consumed step.
            stall_log = system.trainer_handle.instance().stall_log
            assert len(stall_log) == 6
            fleet_sizes = [size for _, _, size in stall_log]
            assert fleet_sizes[-1] > fleet_sizes[0]
            # Fleet markers never perturb the interval-overlap rebuild.
            from repro.metrics.timeline import OverlapLedger

            rebuilt = OverlapLedger.from_timeline(system.system.timeline)
            assert len(rebuilt) > 0
        finally:
            system.shutdown()


class TestDeltaCacheUnderFleetChurn:
    """The planner's gather must stay exact through every fleet mutation:
    mirror spawn (bootstrap replay), per-step group sync (`replay_demands` on
    the canonical), drain-retire, and loader crash + pristine-replay
    recovery."""

    @staticmethod
    def _assert_gather_exact(system):
        """Gather once: each source's rows are its canonicals' buffers, in order."""
        infos, _ = system.planner_handle.instance().gather_buffer_columns()
        buffered: dict[str, list[int]] = {}
        for handle in system.loader_handles:
            loader = handle.instance()
            buffered.setdefault(loader.source.name, []).extend(
                buffered_ids(loader)
            )
        assert {
            source: infos.sample_ids[start:end].tolist()
            for source, (_, start, end) in infos.source_runs().items()
        } == buffered

    @pytest.mark.parametrize("depth", [0, 2])
    def test_cache_exact_across_scale_up_down_and_mirror_crash(self, depth):
        frozen = MegaScaleData.deploy(make_job(0, elastic=False))
        elastic = MegaScaleData.deploy(make_job(depth, elastic=True))
        arm_scaler(elastic)
        killed = False
        try:
            for step in range(14):
                a = frozen.run_step()
                if not killed and elastic.fleet.spawn_count() >= 1:
                    mirror = elastic.fleet.changes[0].actor
                    if mirror in elastic.system.list_actor_names():
                        elastic.system.failures.fail(mirror)
                        killed = True
                b = elastic.run_step()
                assert a.plan.source_demands == b.plan.source_demands, step
                assert delivery_signature(a) == delivery_signature(b), step
            assert killed
            assert elastic.fleet.spawn_count() >= 1
            assert elastic.fleet.retire_count() >= 1
            self._assert_gather_exact(elastic)
        finally:
            frozen.shutdown()
            elastic.shutdown()

    def test_cache_resyncs_after_canonical_crash_recovery(self):
        """A canonical loader dying mid-prefetch is recovered by pristine
        replay; the next gather sees the recovered buffer, and the run stays
        byte-identical to an undisturbed one."""
        undisturbed = MegaScaleData.deploy(make_job(2, elastic=False))
        crashed = MegaScaleData.deploy(make_job(2, elastic=False))
        try:
            for step in range(10):
                a = undisturbed.run_step()
                if step == 4:
                    crashed.system.failures.fail(crashed.loader_handles[0].name)
                b = crashed.run_step()
                assert a.plan.source_demands == b.plan.source_demands, step
                assert delivery_signature(a) == delivery_signature(b), step
            assert any(
                event.kind == "restart" for event in crashed.fault_manager.events()
            )
            self._assert_gather_exact(crashed)
        finally:
            undisturbed.shutdown()
            crashed.shutdown()


class TestDemandRouting:
    """split_demands probes the canonicals per demanded id; the rule it replaced
    built an id -> group map from every canonical's whole buffer."""

    @staticmethod
    def _map_based_routing(fleet, plan):
        """split_demands as it stood at 6bb56dd, from every canonical's buffered ids."""
        demands = {handle: [] for handle in fleet.all_handles()}
        for source, sample_ids in plan.source_demands.items():
            groups = fleet._by_source[source]
            buffered = {}
            for group in groups:
                for sample_id in buffered_ids(group.canonical.instance()):
                    buffered.setdefault(sample_id, group)
            group_ids = {}
            for position, sample_id in enumerate(sample_ids):
                group = buffered.get(sample_id, groups[position % len(groups)])
                group_ids.setdefault(id(group), []).append(sample_id)
            for group in groups:
                for position, sample_id in enumerate(group_ids.get(id(group), [])):
                    demands[group.members[position % len(group.members)]].append(sample_id)
        return demands

    @pytest.mark.parametrize("shards", [2, 3])
    @given(picks=st.lists(st.integers(min_value=0, max_value=63), max_size=40), data=st.data())
    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_probe_routing_equals_map_routing(self, small_catalog, filesystem, shards, picks, data):
        system = ActorSystem(ClusterSpec(accelerator_nodes=1, cpu_pods=1))
        fleet = LoaderFleet(system, filesystem, job=make_job(0, elastic=True))
        source = small_catalog.sources()[0]
        # One group per shard plus a last group reading the whole source, so
        # some ids sit in one canonical's buffer, some in two, most in none.
        layouts = [(index, shards) for index in range(shards)] + [(0, 1)]
        for index, (shard_index, shard_count) in enumerate(layouts):
            handle = system.create_actor(
                lambda: SourceLoader(
                    source, filesystem, buffer_size=8,
                    shard_index=shard_index, shard_count=shard_count,
                ),
                name=f"loader-{index}",
                memory_bytes=GIB,
            )
            fleet.register_canonical(handle, source.name, shard_index, shard_count, 1, GIB)
        buffers = [
            buffered_ids(group.canonical.instance())
            for group in fleet._by_source[source.name]
        ]
        in_two = set(buffers[-1]) & set().union(*buffers[:-1])
        assert in_two and any(set(ids) - in_two for ids in buffers)
        known = [sample_id for ids in buffers for sample_id in ids]
        unknown = max(known) + 1
        # A pick below len(known) names a buffered id, anything else an id no
        # canonical holds; demands carry no duplicates.
        ids = list(dict.fromkeys(
            known[pick] if pick < len(known) else unknown + pick for pick in picks
        ))
        ids = data.draw(st.permutations(ids))
        # Mirrors go to the smallest group first: groups of one to three members.
        for _ in range(data.draw(st.integers(0, 2 * len(layouts)))):
            assert fleet.spawn_member(source.name, step=0, planner=None) is not None
        plan = LoadingPlan(step=0, source_demands={source.name: list(ids)})
        assert fleet.split_demands(plan) == self._map_based_routing(fleet, plan)
