"""Fault tolerance demo: shadow loader failover and planner restart.

Deploys a small job with shadow loaders enabled, kills a Source Loader
mid-training and fails it over through ``recover_fleet_member`` — the one
loader failover path: its hot-standby shadow is promoted, restores the last
differential checkpoint and replays the Planner's plan suffix, so
training resumes on the failed loader's exact sample stream.  It then kills
and restarts the Planner from its GCS checkpoint — all while the pull workflow
keeps producing batches.

    python examples/fault_tolerance_demo.py
"""

from __future__ import annotations

from repro import MegaScaleData, TrainingJobSpec
from repro.utils.units import format_bytes


def main() -> None:
    job = TrainingJobSpec(
        pp=1,
        dp=2,
        cp=1,
        tp=1,
        backbone="Llama-12B",
        encoder=None,
        samples_per_dp_step=8,
        num_microbatches=2,
        num_sources=4,
        samples_per_source=96,
        strategy="backbone_balance",
        enable_shadow_loaders=True,
        seed=7,
    )
    system = MegaScaleData.deploy(job)
    manager = system.fault_manager
    print(f"deployed with {len(system.loader_handles)} loaders and "
          f"{manager.shadow_count()} shadow loaders "
          f"({format_bytes(manager.shadow_memory_bytes())} standby state)")

    # Warm up; the fleet takes its differential checkpoints at each step's
    # sync point.
    for step in range(3):
        system.run_step(step=step)

    # Inject a loader failure and detect it through the heartbeat probe.
    victim = system.loader_handles[0]
    shard = system.fleet.group_for(victim.name).shard
    print(f"\ninjecting failure into {victim.name}")
    system.system.failures.fail(victim.name)
    failed = manager.detect_failures(system.loader_handles)
    print(f"detected failed loaders: {[handle.name for handle in failed]}")

    # Promote the shadow, resync it and resume training.
    checkpoint = manager.shard_checkpoint(shard, system.step)
    system.recover_fleet_member(victim, system.step)
    event = manager.events()[-1]
    print(f"recovered via {event.kind} ({event.detail}) from the step "
          f"{checkpoint['step']} checkpoint, recovery latency "
          f"{event.recovery_latency_s:.2f}s")
    result = system.run_step()
    print(f"step {result.step} delivered batches to {len(result.deliveries)} ranks "
          f"after failover")

    # Kill the Planner and restart it from the GCS-backed checkpoint.
    print("\nkilling the planner")
    planner_state = system.planner_handle.instance().state_dict()
    system.system.kill_actor("planner")
    system.system.restart_actor("planner", state=planner_state)
    planner = system.planner_handle.instance()
    planner.register_loaders(system.loader_handles)
    resume_step = planner.replay_from_gcs()
    print(f"planner restarted; resuming from step {resume_step}")
    result = system.run_step(step=resume_step)
    print(f"step {resume_step} delivered batches to {len(result.deliveries)} ranks")

    # ETTR over six 30 s iterations: productive time / (productive + recovery).
    productive_s = 6 * 30.0
    ettr = productive_s / (productive_s + manager.total_recovery_latency())
    print(f"\neffective training time ratio with recoveries: {ettr:.3f}")
    system.shutdown()


if __name__ == "__main__":
    main()
