"""Multi-tenant shared data plane walkthrough: three jobs, one pool.

Admits a high-priority "prod" tenant and two low-priority "batch" tenants
to one :class:`TenantManager` — a single shared ActorSystem, placement
scheduler and node pool.  Each tenant's job runs under its own namespace
(actor names, planner GCS keys, checkpoint-store keys all prefixed), so the
only coupling between them is capacity.

The script stages a contention story on memory-tight nodes:

1. The batch tenants immediately scale up ``src000`` and absorb every
   mirror slot the pool has.
2. At step 2 the prod tenant's mixture bursts onto ``src000``; the scaler
   asks for mirrors, but the pool is full, so the spawns queue.
3. At the next round boundary the manager preempts: the batch tenants'
   youngest mirrors drain-retire (canonical shards are never touched) and
   the queued prod spawns land on the freed capacity.

The final report shows prod's data stall staying near its solo baseline
while the batch tenants degrade gracefully to base capacity.

    python examples/multi_tenant.py
"""

from __future__ import annotations

from dataclasses import replace

from repro.actors.node import ResourceSpec
from repro.actors.runtime import ClusterSpec
from repro.core.framework import TrainingJobSpec, fetch_bound_gpu_spec
from repro.core.tenancy import TenantManager, TenantSpec
from repro.data.mixture import MixturePhase, MixtureSchedule
from repro.utils.units import GIB

MIB = GIB // 1024
NUM_STEPS = 14
BURST_SOURCE = "navit_data/src000"


def tight_cluster(num_tenants: int) -> ClusterSpec:
    """Pooled cluster sized so mirrors compete for a few whole-node holes."""
    return ClusterSpec(
        accelerator_nodes=2 * num_tenants,
        cpu_pods=num_tenants,
        accelerator_resources=ResourceSpec(cpu_cores=22.0, memory_bytes=3600 * MIB),
        cpu_pod_resources=ResourceSpec(cpu_cores=10.0, memory_bytes=6656 * MIB),
    )


def make_job(bursty: bool) -> TrainingJobSpec:
    uniform = {f"navit_data/src{i:03d}": 1 / 3 for i in range(3)}
    mixture = None
    if bursty:
        burst = dict(uniform, **{BURST_SOURCE: 0.8})
        for name in burst:
            if name != BURST_SOURCE:
                burst[name] = 0.1
        mixture = MixtureSchedule.staged(
            [MixturePhase(0, uniform), MixturePhase(2, burst), MixturePhase(7, uniform)]
        )
    return TrainingJobSpec(
        pp=1, dp=2, cp=1, tp=1,
        encoder=None,
        strategy="backbone_balance",
        samples_per_dp_step=8,
        num_microbatches=2,
        num_sources=3,
        samples_per_source=64,
        prefetch_depth=2,
        mixture=mixture,
        enable_autoscaler=bursty,
        seed=5,
    )


def main() -> None:
    manager = TenantManager(cluster=tight_cluster(3))

    # Fetch-bound regime: loader throughput binds, so prod's burst mirrors
    # (and their preemption) directly move its measured stall.
    prod_job = make_job(bursty=True)
    prod_job = replace(
        prod_job, gpu_spec=fetch_bound_gpu_spec(prod_job, compute_fraction=0.4)
    )
    prod = manager.admit(TenantSpec(name="prod", job=prod_job, priority=2))
    scaler = prod.planner_handle.instance().scaler
    scaler.consecutive_intervals = 2
    scaler.window = 3

    batch = [
        manager.admit(
            TenantSpec(name=f"batch{index}", job=make_job(bursty=False), priority=0)
        )
        for index in range(2)
    ]
    print(f"admitted {len(manager.tenants)} tenants on one "
          f"{len(manager.system.nodes)}-node pool")

    print(f"{'round':>5}  {'prod stall':>10}  {'prod fleet':>10}  "
          f"{'batch fleet':>11}  events")
    for round_index in range(NUM_STEPS):
        result = prod.run_step(simulate=True)
        for deployment in batch:
            deployment.run_step(simulate=True)
        if round_index == 0:
            # The batch tenants absorb every mirror slot before prod bursts.
            for deployment in batch:
                deployment.scale_source(BURST_SOURCE, 4)
        before = len(manager.preemptions)
        manager.service_round(round_index)
        events = [
            f"preempt {event.victim}->{event.beneficiary} ({event.source.split('/')[-1]})"
            for event in manager.preemptions[before:]
        ]
        print(f"{round_index:>5}  {result.data_stall_s:>10.3f}  "
              f"{prod.fleet.total_members():>10}  "
              f"{sum(d.fleet.total_members() for d in batch):>11}  "
              f"{', '.join(events)}")

    report = manager.report()
    print()
    print(f"{'tenant':>8}  {'prio':>4}  {'stall (s)':>9}  {'actors':>6}  "
          f"{'cpu share':>9}  {'preempted':>9}")
    for name, entry in report["tenants"].items():
        print(f"{name:>8}  {entry['priority']:>4.0f}  "
              f"{entry['data_stall_time_s']:>9.3f}  "
              f"{entry['loader_actors']:>6.0f}  "
              f"{entry.get('tenant_share', 0.0):>9.1%}  "
              f"{entry['preemptions_suffered']:>9.0f}")
    aggregate = report["aggregate"]
    print()
    print(f"pool steps/s:   {aggregate['aggregate_steps_per_s']:.3f}")
    print(f"preemptions:    {aggregate['preemptions']:.0f}")
    print(f"mean node cpu:  {report['utilization']['mean_node_cpu_utilization']:.1%}")
    manager.shutdown()


if __name__ == "__main__":
    main()
