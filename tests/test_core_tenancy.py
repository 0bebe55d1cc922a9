"""Multi-tenant shared data plane: namespacing, quotas, fair share, preemption.

The headline contracts:

- two jobs on one ActorSystem collide without namespaces (the seed behaviour)
  and coexist with them — disjoint actor names, planner GCS keys,
  ``prepared/`` refs and checkpoint-store namespaces;
- each tenant's delivered batches are byte-identical to the same job run
  solo, regardless of co-tenants, priorities or mid-run preemption;
- the scheduler enforces per-tenant quotas and exposes weighted fair-share
  deficits; the TenantManager preempts lower-tier mirrors for higher-tier
  unmet demand via the drain-retire + retry machinery.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.actors.node import ResourceSpec
from repro.actors.runtime import ActorSystem, ClusterSpec
from repro.actors.scheduler import PlacementRequest, PlacementScheduler, TenantQuota
from repro.core.checkpoint import (
    CheckpointError,
    InMemoryCheckpointStore,
    NamespacedCheckpointStore,
)
from repro.core.framework import MegaScaleData, TrainingJobSpec
from repro.core.tenancy import TenantManager, TenantSpec
from repro.errors import ActorError, ConfigurationError, SchedulingError
from repro.utils.units import GIB


def make_job(seed=0, prefetch_depth=2, **kwargs):
    return TrainingJobSpec(
        pp=1, dp=2, cp=1, tp=1, encoder=None, strategy="backbone_balance",
        samples_per_dp_step=8, num_microbatches=2, num_sources=3,
        samples_per_source=64, seed=seed, prefetch_depth=prefetch_depth, **kwargs,
    )


def delivery_bytes(result):
    """Byte-level signature of a step's per-rank deliveries."""
    return {
        rank: [
            (
                piece.rank,
                piece.microbatch_index,
                piece.token_count,
                piece.payload_bytes,
                piece.metadata_only,
                piece.replicated_from,
            )
            for piece in delivery.slices
        ]
        for rank, delivery in sorted(result.deliveries.items())
    }


def big_cluster():
    return ClusterSpec(accelerator_nodes=4, cpu_pods=2)


# -- the seed collision, and its fix -------------------------------------------------


class TestCrossJobCollisions:
    def test_two_unscoped_jobs_on_one_system_collide(self):
        """Seed behaviour: the second deploy dies on duplicate actor names."""
        first = MegaScaleData.deploy(make_job(seed=0), cluster=big_cluster())
        try:
            with pytest.raises(ActorError, match="duplicate actor name"):
                MegaScaleData.deploy(make_job(seed=1), system=first.system)
        finally:
            first.shutdown()

    def test_namespaced_jobs_coexist_with_disjoint_state(self):
        system = ActorSystem(big_cluster())
        a = MegaScaleData.deploy(make_job(seed=0, namespace="jobA"), system=system)
        b = MegaScaleData.deploy(make_job(seed=1, namespace="jobB"), system=system)
        try:
            names = system.list_actor_names()
            assert any(name.startswith("jobA/") for name in names)
            assert any(name.startswith("jobB/") for name in names)
            assert all(name.startswith(("jobA/", "jobB/")) for name in names)

            for _ in range(3):
                a.run_step()
                b.run_step()

            # Every surviving GCS key is tenant-scoped (prepared/ refs are
            # transient — published by scoped loader name, consumed by take).
            keys = system.gcs.keys()
            assert keys, "expected planner keys on the shared GCS"
            assert all(
                key.startswith(("jobA/", "jobB/")) or "/jobA/" in key or "/jobB/" in key
                for key in keys
            ), keys
            # Planner position markers are scoped per tenant.
            assert system.gcs.get("jobA/planner/last_step") is not None
            assert system.gcs.get("jobB/planner/last_step") is not None
            assert system.gcs.get("planner/last_step") is None
        finally:
            a.shutdown()
            b.shutdown()

    def test_scoped_shutdown_leaves_co_tenant_running(self):
        system = ActorSystem(big_cluster())
        a = MegaScaleData.deploy(make_job(seed=0, namespace="jobA"), system=system)
        b = MegaScaleData.deploy(make_job(seed=1, namespace="jobB"), system=system)
        a.shutdown()
        try:
            assert not any(
                name.startswith("jobA/") for name in system.list_actor_names()
            )
            # The co-tenant still runs full steps after A tore down.
            result = b.run_step()
            assert result.deliveries
        finally:
            b.shutdown()

    def test_shared_checkpoint_store_namespaces_disjoint(self):
        system = ActorSystem(big_cluster())
        store = InMemoryCheckpointStore()
        a = MegaScaleData.deploy(
            make_job(seed=0, namespace="jobA"), system=system, checkpoint_store=store
        )
        b = MegaScaleData.deploy(
            make_job(seed=1, namespace="jobB"), system=system, checkpoint_store=store
        )
        try:
            a.run_step()
            b.run_step()
            a.save_checkpoint()
            b.save_checkpoint()
            assert store.steps("jobA/run") and store.steps("jobB/run")
            assert not store.steps("run")
            # Delivery manifests land in per-tenant namespaces too.
            assert store.steps("jobA/delivery/manifests")
            assert store.steps("jobB/delivery/manifests")
        finally:
            a.shutdown()
            b.shutdown()


# -- the namespaced checkpoint-store wrapper -----------------------------------------


class TestNamespacedCheckpointStore:
    def test_prefixes_every_namespace(self):
        backend = InMemoryCheckpointStore()
        scoped = NamespacedCheckpointStore(backend, "jobA")
        scoped.save("planner/plans", 3, {"step": 3})
        assert backend.load("jobA/planner/plans", 3) == {"step": 3}
        assert scoped.load("planner/plans", 3) == {"step": 3}
        assert scoped.load_latest("planner/plans") == (3, {"step": 3})
        assert scoped.steps("planner/plans") == [3]

    def test_rewrapping_nests_on_the_same_backend(self):
        backend = InMemoryCheckpointStore()
        outer = NamespacedCheckpointStore(NamespacedCheckpointStore(backend, "a"), "b")
        assert outer.backend is backend
        assert outer.prefix == "a/b"

    def test_clear_refused_on_scoped_view(self):
        scoped = NamespacedCheckpointStore(InMemoryCheckpointStore(), "jobA")
        with pytest.raises(CheckpointError):
            scoped.clear()


# -- scheduler quotas and fair share -------------------------------------------------


def tiny_scheduler():
    return PlacementScheduler(
        ClusterSpec(
            accelerator_nodes=1,
            cpu_pods=0,
            accelerator_resources=ResourceSpec(cpu_cores=32.0, memory_bytes=64 * GIB),
        ).build_nodes()
    )


class TestSchedulerTenancy:
    def test_cpu_quota_rejected_at_admission(self):
        scheduler = tiny_scheduler()
        scheduler.register_tenant(TenantQuota(tenant="t", cpu_limit=4.0))
        scheduler.place(PlacementRequest("t/a", 3.0, GIB, tenant="t"))
        with pytest.raises(SchedulingError, match="CPU quota"):
            scheduler.place(PlacementRequest("t/b", 2.0, GIB, tenant="t"))

    def test_memory_quota_rejected_at_admission(self):
        scheduler = tiny_scheduler()
        scheduler.register_tenant(TenantQuota(tenant="t", memory_limit=2 * GIB))
        scheduler.place(PlacementRequest("t/a", 1.0, GIB, tenant="t"))
        with pytest.raises(SchedulingError, match="memory quota"):
            scheduler.place(PlacementRequest("t/b", 1.0, 2 * GIB, tenant="t"))

    def test_release_refunds_usage(self):
        scheduler = tiny_scheduler()
        scheduler.register_tenant(TenantQuota(tenant="t", cpu_limit=4.0))
        decision = scheduler.place(PlacementRequest("t/a", 4.0, GIB, tenant="t"))
        scheduler.release("t/a", decision.node_name, 4.0, GIB, tenant="t")
        assert scheduler.tenant_usage("t")["cpu_cores"] == 0.0
        # Quota headroom is back.
        scheduler.place(PlacementRequest("t/b", 4.0, GIB, tenant="t"))

    def test_fair_share_deficit_orders_underserved_first(self):
        scheduler = tiny_scheduler()
        scheduler.register_tenant(TenantQuota(tenant="big", weight=3.0))
        scheduler.register_tenant(TenantQuota(tenant="small", weight=1.0))
        scheduler.place(PlacementRequest("big/a", 4.0, GIB, tenant="big"))
        scheduler.place(PlacementRequest("small/a", 12.0, GIB, tenant="small"))
        shares = scheduler.tenant_shares()
        # big is entitled to 3/4 of the 16 reserved cores but holds 4.
        assert shares["big"]["deficit"] == pytest.approx(8.0)
        assert shares["small"]["deficit"] == pytest.approx(-8.0)
        assert shares["big"]["share"] == pytest.approx(0.25)

    def test_unmetered_requests_bypass_quotas(self):
        scheduler = tiny_scheduler()
        scheduler.register_tenant(TenantQuota(tenant="t", cpu_limit=1.0))
        scheduler.place(PlacementRequest("free/a", 8.0, GIB))  # no tenant tag
        assert scheduler.tenant_usage("t")["cpu_cores"] == 0.0


# -- TenantManager admission and accounting ------------------------------------------


class TestTenantManager:
    def test_pool_packs_and_tenants_share_one_store(self):
        manager = TenantManager(cluster=big_cluster())
        try:
            assert manager.system.scheduler.policy == "pack"
            deployment = manager.admit(TenantSpec(name="a", job=make_job(seed=0)))
            store = deployment.checkpoint_store
            assert isinstance(store, NamespacedCheckpointStore)
            assert store.backend is manager.checkpoint_store
            assert store.prefix == "a"
        finally:
            manager.shutdown()

    def test_admit_rejects_duplicates_and_mismatches(self):
        manager = TenantManager(cluster=big_cluster())
        try:
            manager.admit(TenantSpec(name="a", job=make_job(seed=0)))
            with pytest.raises(ConfigurationError, match="already admitted"):
                manager.admit(TenantSpec(name="a", job=make_job(seed=1)))
            with pytest.raises(ConfigurationError, match="backend"):
                manager.admit(
                    TenantSpec(name="b", job=make_job(seed=1, backend="wallclock"))
                )
        finally:
            manager.shutdown()

    def test_quota_too_small_for_base_actors_rejects_admission(self):
        manager = TenantManager(cluster=big_cluster())
        try:
            with pytest.raises(SchedulingError, match="quota"):
                manager.admit(
                    TenantSpec(name="tiny", job=make_job(seed=0), cpu_quota=1.0)
                )
        finally:
            manager.shutdown()

    def test_run_reports_per_tenant_overlap_and_shares(self):
        manager = TenantManager(cluster=big_cluster())
        try:
            manager.admit(TenantSpec(name="alpha", job=make_job(seed=0), priority=1))
            manager.admit(TenantSpec(name="beta", job=make_job(seed=1), weight=2.0))
            report = manager.run(3)
            assert set(report["tenants"]) == {"alpha", "beta"}
            for entry in report["tenants"].values():
                assert entry["steps"] == 3.0
                assert entry["hidden_data_time_s"] >= 0.0
                assert "tenant_share" in entry
                assert "mean_cpu_share" in entry
            assert report["aggregate"]["total_steps"] == 6.0
            assert report["aggregate"]["aggregate_steps_per_s"] > 0.0
        finally:
            manager.shutdown()

    def test_evict_returns_capacity_to_the_pool(self):
        manager = TenantManager(cluster=big_cluster())
        try:
            manager.admit(TenantSpec(name="alpha", job=make_job(seed=0)))
            used = manager.system.scheduler.tenant_usage("alpha")["cpu_cores"]
            assert used > 0.0
            manager.evict("alpha")
            assert manager.system.scheduler.tenant_usage("alpha")["cpu_cores"] == 0.0
        finally:
            manager.shutdown()

    def test_evict_costs_the_co_tenant_no_virtual_time(self):
        """Evicting a tenant with prefetch in flight abandons its window: no
        rewind RPC lands on the shared clock, and the survivor's next step
        delivers what its solo run delivers."""
        solo_steps = run_solo(1, 2, 5)
        manager = TenantManager(cluster=big_cluster())
        try:
            manager.admit(TenantSpec(name="alpha", job=make_job(seed=0)))
            beta = manager.admit(TenantSpec(name="beta", job=make_job(seed=1)))
            manager.run(4)
            assert manager.deployments["alpha"].pipeline.inflight()
            before_s = manager.system.clock.now_s
            manager.evict("alpha")
            assert manager.system.clock.now_s == before_s
            assert delivery_bytes(beta.run_step()) == solo_steps[4]
        finally:
            manager.shutdown()

    def test_overlap_ledger_carries_tenant_tag(self):
        manager = TenantManager(cluster=big_cluster())
        try:
            deployment = manager.admit(TenantSpec(name="alpha", job=make_job(seed=0)))
            assert deployment.overlap.tenant == "alpha"
        finally:
            manager.shutdown()


# -- preemption ----------------------------------------------------------------------


def preemption_scenario(enable_preemption=True):
    """A pool sized so the high-tier tenant's burst needs the low tier's mirrors.

    Both tenants fit their base fleets; the low-priority tenant scales one
    source up first and fills the remaining capacity, so the high-priority
    tenant's later scale-up is placement-rejected and queues — the preemption
    trigger.
    """
    manager = TenantManager(
        cluster=ClusterSpec(
            accelerator_nodes=2,
            cpu_pods=1,
            accelerator_resources=ResourceSpec(cpu_cores=50.0, memory_bytes=96 * GIB),
        ),
        enable_preemption=enable_preemption,
    )
    high = manager.admit(TenantSpec(name="prod", job=make_job(seed=0), priority=2))
    low = manager.admit(TenantSpec(name="batch", job=make_job(seed=1), priority=0))
    return manager, high, low


class TestPreemption:
    def test_high_tier_burst_preempts_low_tier_mirrors(self):
        manager, high, low = preemption_scenario()
        try:
            for _ in range(2):
                high.run_step()
                low.run_step()
            # Low tier absorbs the remaining pool capacity with mirrors.
            low.scale_source("navit_data/src000", 6)
            assert low.fleet.member_count("navit_data/src000") > 1
            # High tier now bursts; some spawns must be capacity-rejected.
            high.scale_source("navit_data/src000", 6)
            assert high.fleet.pending_spawn_count() > 0
            mirrors_before = low.fleet.member_count("navit_data/src000")
            spawned = manager.service_round(2)
            assert manager.preemptions, "expected at least one preemption event"
            event = manager.preemptions[0]
            assert event.victim == "batch" and event.beneficiary == "prod"
            assert spawned >= 1
            assert low.fleet.member_count("navit_data/src000") < mirrors_before
            # Victim keeps its canonical members: service continues.
            assert low.run_step().deliveries
            assert high.run_step().deliveries
        finally:
            manager.shutdown()

    def test_preemption_disabled_leaves_victims_alone(self):
        manager, high, low = preemption_scenario(enable_preemption=False)
        try:
            for _ in range(2):
                high.run_step()
                low.run_step()
            low.scale_source("navit_data/src000", 6)
            high.scale_source("navit_data/src000", 6)
            assert high.fleet.pending_spawn_count() > 0
            mirrors_before = low.fleet.member_count("navit_data/src000")
            manager.service_round(2)
            assert not manager.preemptions
            assert low.fleet.member_count("navit_data/src000") == mirrors_before
        finally:
            manager.shutdown()

    def test_equal_priority_never_preempts(self):
        manager = TenantManager(
            cluster=ClusterSpec(
                accelerator_nodes=2,
                cpu_pods=1,
                accelerator_resources=ResourceSpec(cpu_cores=50.0, memory_bytes=96 * GIB),
            )
        )
        try:
            a = manager.admit(TenantSpec(name="a", job=make_job(seed=0), priority=1))
            b = manager.admit(TenantSpec(name="b", job=make_job(seed=1), priority=1))
            a.run_step()
            b.run_step()
            b.scale_source("navit_data/src000", 6)
            a.scale_source("navit_data/src000", 6)
            manager.service_round(1)
            assert not manager.preemptions
        finally:
            manager.shutdown()


# -- byte-identity under co-tenancy --------------------------------------------------


def run_solo(seed, depth, num_steps):
    solo = MegaScaleData.deploy(
        make_job(seed=seed, prefetch_depth=depth), cluster=big_cluster()
    )
    try:
        return [delivery_bytes(solo.run_step()) for _ in range(num_steps)]
    finally:
        solo.shutdown()


@given(
    seed=st.integers(min_value=0, max_value=15),
    depth=st.integers(min_value=1, max_value=2),
    co_priority=st.sampled_from([0, 2]),
)
@settings(max_examples=6, deadline=None)
def test_tenant_batches_byte_identical_to_solo_run(seed, depth, co_priority):
    """The multi-tenant determinism contract: co-tenants, priorities and
    fair-share contention change timing and capacity, never bytes."""
    num_steps = 4
    solo_steps = run_solo(seed, depth, num_steps)

    manager = TenantManager(cluster=big_cluster())
    try:
        observed = manager.admit(
            TenantSpec(
                name="observed",
                job=make_job(seed=seed, prefetch_depth=depth),
                priority=1,
            )
        )
        other = manager.admit(
            TenantSpec(
                name="other",
                job=make_job(seed=seed + 17, prefetch_depth=depth),
                priority=co_priority,
                weight=2.0,
            )
        )
        shared_steps = []
        for round_index in range(num_steps):
            shared_steps.append(delivery_bytes(observed.run_step()))
            other.run_step()
            manager.service_round(round_index)
        assert shared_steps == solo_steps
    finally:
        manager.shutdown()


def test_tenant_batches_byte_identical_under_mid_run_preemption():
    """Preemption drain-retires the victim's mirrors mid-run; the victim's
    delivered batches stay byte-identical to its solo run."""
    num_steps = 6
    solo_steps = run_solo(1, 2, num_steps)

    manager, high, low = preemption_scenario()
    try:
        shared_steps = []
        for round_index in range(num_steps):
            shared_steps.append(delivery_bytes(low.run_step()))
            high.run_step()
            if round_index == 1:
                # The victim grows mirrors, then the high tier bursts over
                # the remaining capacity at the next boundary.
                low.scale_source("navit_data/src000", 6)
                high.scale_source("navit_data/src000", 6)
            manager.service_round(round_index)
        assert manager.preemptions, "scenario must actually preempt"
        assert shared_steps == solo_steps
    finally:
        manager.shutdown()


@pytest.mark.slow
def test_wallclock_shared_system_smoke():
    """Both backends serve multi-tenant deployments: a wallclock pool runs two
    tenants and their batches match the virtual solo run byte for byte."""
    num_steps = 3
    solo_steps = run_solo(2, 1, num_steps)

    manager = TenantManager(
        cluster=big_cluster(), backend="wallclock", time_scale=0.001
    )
    try:
        observed = manager.admit(
            TenantSpec(
                name="observed",
                job=make_job(
                    seed=2, prefetch_depth=1, backend="wallclock",
                    wallclock_time_scale=0.001,
                ),
                priority=1,
            )
        )
        other = manager.admit(
            TenantSpec(
                name="other",
                job=make_job(
                    seed=11, prefetch_depth=1, backend="wallclock",
                    wallclock_time_scale=0.001,
                ),
            )
        )
        shared_steps = []
        for round_index in range(num_steps):
            shared_steps.append(delivery_bytes(observed.run_step()))
            other.run_step()
            manager.service_round(round_index)
        assert shared_steps == solo_steps
    finally:
        manager.shutdown()
