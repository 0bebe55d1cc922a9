"""Elastic data plane walkthrough: ScalingPlan directives applied end to end.

Deploys a prefetching training job under a bursty mixture.  When the burst
concentrates demand on one source, the AutoScaler's piggybacked
``ScalingPlan`` directives spawn mirror loader actors for it through the
placement scheduler (node CPU/memory budgets permitting); when the burst
passes, the mirrors drain and retire, releasing their reservations.  The
delivered batches are byte-identical to a frozen fleet's — elasticity moves
timing, never data — while the trainer's measured data stall drops.

The control loop::

    MixtureDrivenScaler  --ScalingPlan-->  Planner (piggybacked on the plan)
            ^                                  |
            | moving-average weights           v
        MixtureSchedule                MegaScaleData facade (step boundary)
                                               |
                                               v
                                   LoaderFleet.apply_scaling
                                     |                    |
                            PlacementScheduler      ActorSystem
                            (place / release)   (create / retire actors)

    python examples/elastic_scaling.py
"""

from __future__ import annotations

from repro import MegaScaleData, TrainingJobSpec
from repro.data.mixture import MixturePhase, MixtureSchedule


def main() -> None:
    sources = [f"navit_data/src{index:03d}" for index in range(3)]
    uniform = {name: 1 / 3 for name in sources}
    burst = {sources[0]: 0.8, sources[1]: 0.1, sources[2]: 0.1}
    cold = {sources[0]: 0.05, sources[1]: 0.475, sources[2]: 0.475}
    schedule = MixtureSchedule.staged(
        [
            MixturePhase(0, uniform),  # calm warm-up
            MixturePhase(2, burst),    # demand burst on src000
            MixturePhase(10, cold),    # burst passes: src000 goes idle
        ]
    )

    job = TrainingJobSpec(
        pp=1, dp=2, cp=1, tp=1,
        encoder=None,
        strategy="backbone_balance",
        samples_per_dp_step=8,
        num_microbatches=2,
        num_sources=3,
        samples_per_source=64,
        prefetch_depth=2,
        mixture=schedule,
        enable_autoscaler=True,  # the default; False freezes the fleet
        seed=5,
    )
    system = MegaScaleData.deploy(job)
    scaler = system.planner_handle.instance().scaler
    scaler.consecutive_intervals = 2  # react after 2 hot intervals
    scaler.window = 3                 # short moving-average window

    print(f"deployed {system.fleet.total_members()} loader actors "
          f"({len(system.loader_handles)} canonical shards)")
    print(f"{'step':>4}  {'stall (s)':>10}  {'fleet':>5}  events")
    for step in range(18):
        result = system.run_step(simulate=True)
        events = [
            f"{change.kind}:{change.actor.split('/')[-1]}"
            for change in system.fleet.changes
            if change.step == step
        ]
        print(f"{result.step:>4}  {result.data_stall_s:>10.3f}  "
              f"{system.fleet.total_members():>5}  {', '.join(events)}")

    summary = system.run_training(num_steps=2)
    print()
    print(f"fleet spawns:   {summary['fleet_spawns']:.0f}")
    print(f"fleet retires:  {summary['fleet_retires']:.0f}")
    print(f"peak actors:    {summary['peak_loader_actors']:.0f}")
    print(f"peak node cpu:  {summary['peak_node_cpu_utilization']:.1%}")
    print(f"mean node cpu:  {summary['mean_node_cpu_utilization']:.1%}")
    for event in system.overlap.fleet_events():
        print(f"  [{event.at_s:9.3f}s] step {event.step:>2} {event.kind:<6} "
              f"{event.actor} on {event.node or '-'}")
    system.shutdown()


if __name__ == "__main__":
    main()
