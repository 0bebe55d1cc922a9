"""Fig. 23 (recovery leg) — loader recovery latency vs run length.

Before this PR, recovering a failed Source Loader replayed the *entire* plan
history from genesis: a pristine restart followed by ``replay_demands`` for
every plan ever generated — O(steps) work that grows without bound over a
production run.  The durable control plane fixes this with differential
checkpoints: the FaultToleranceManager snapshots each loader's replay state
(buffer + cursor) on the checkpoint interval, the Planner persists plans past
its bounded in-memory window into a :class:`CheckpointStore`, and recovery
restores the newest snapshot and replays only the post-checkpoint
suffix — O(interval), flat in run length.

This benchmark drives a loader fleet + Planner + FaultToleranceManager for
{100, 400, 1600} steps and then measures wall-clock recovery of one loader
under both policies:

- ``bounded`` — restore the latest differential checkpoint, replay
  the plan suffix after it (at most the checkpoint interval of plans);
- ``full`` — reset to genesis and replay every plan of the run (the
  pre-checkpoint-store behaviour).

Both reconstructions must land on byte-identical buffer state (the
conditional-refill replay semantics guarantee cursor parity), which is
asserted every sweep point.  The bounded path must stay approximately flat
across the sweep and beat full replay by **>= 5x** at 1600 steps.  Results go
to ``BENCH_fig23_recovery.json``; the CI ``recovery-bench`` leg re-runs the
middle point in smoke mode and gates on a >30% bounded-recovery throughput
regression via ``gate.py recovery``.

A second section, ``checkpoint_cost``, drives the whole facade at
``prefetch_depth=2`` for the same run lengths and records what one
``MegaScaleData.save_checkpoint()`` costs beside the prefetch window — the
virtual stall it adds to the run (none: the save neither flushes nor waits)
and real milliseconds per save and per ``restore`` (flat in run length: the
entry holds one differential checkpoint per loader plus at most a replay
window of plans, and restore replays at most that suffix).

Env knobs: ``BENCH_RECOVERY_SMOKE=1`` restricts the sweeps to the middle point
(CI smoke) and writes the ``smoke`` / ``checkpoint_cost_smoke`` sections of
the artifact.
"""

from __future__ import annotations

import os
import time

from repro.actors.runtime import ActorSystem, ClusterSpec
from repro.core.checkpoint import InMemoryCheckpointStore
from repro.core.fault_tolerance import FaultToleranceManager
from repro.core.framework import MegaScaleData, TrainingJobSpec
from repro.core.place_tree import ClientPlaceTree
from repro.core.planner import Planner
from repro.core.source_loader import SourceLoader
from repro.core.strategies import StrategyConfig, backbone_balance_strategy
from repro.data.mixture import MixtureSchedule
from repro.data.synthetic import build_source_catalog, navit_like_spec
from repro.metrics.report import MetricReport
from repro.parallelism.mesh import DeviceMesh
from repro.storage.filesystem import SimulatedFileSystem
from repro.utils.units import GIB

from .conftest import emit, write_bench_json

#: Run lengths (training steps before the crash).  The smoke point must stay
#: in the full sweep so the CI gate can compare fresh smoke rows against
#: committed ones.
SWEEP_POINTS = (100, 400, 1600)
#: The smoke (CI) point is the middle sweep point: long enough for the full
#: replay to have a measurable timed region, short enough for CI.
SMOKE_POINTS = (400,)
NUM_SOURCES = 4
SAMPLES_PER_SOURCE = 512
BUFFER_SIZE = 64
#: Samples mixed per plan, fixed across the sweep.
BATCH_SAMPLES = 32
#: Differential checkpoint interval == the Planner's bounded replay window:
#: bounded recovery replays at most this many plans, whatever the run length.
CHECKPOINT_INTERVAL = 25
#: Repeat each timed recovery and keep the *minimum*: recovery regions are
#: a few milliseconds, where one GC or scheduler pause under a loaded runner
#: dwarfs the signal; the min is the standard robust timing estimator.
REPETITIONS = 5
#: Required full-over-bounded recovery speedup at the longest run.
REQUIRED_SPEEDUP = 5.0
#: Bounded recovery across a 16x run-length spread must stay within this
#: factor — "flat", allowing for timer noise on small absolute latencies.
FLATNESS_FACTOR = 4.0
#: Steps run past the save before the twin runs are compared: the prefetch
#: window the parent's flushing save used to re-plan, and one more.
STEPS_AFTER_SAVE = 4
#: Save and restore cost at 1600 steps over the cost at 100 steps.
CHECKPOINT_FLATNESS_FACTOR = 2.0
#: Timed saves and restores per point (minimum kept): a save is a third of a
#: millisecond, so a ratio of two of them needs more than ``REPETITIONS``.
CHECKPOINT_REPETITIONS = 15


def _smoke_mode() -> bool:
    return os.environ.get("BENCH_RECOVERY_SMOKE", "0") == "1"


def _buffer_ids(handle) -> list[int]:
    return list(handle.instance().replay_checkpoint()["buffer"])


def _drive(num_steps: int) -> dict[str, object]:
    """Run ``num_steps`` of plan/consume churn, then time both recoveries."""
    filesystem = SimulatedFileSystem()
    catalog = build_source_catalog(
        navit_like_spec(
            num_sources=NUM_SOURCES, samples_per_source=SAMPLES_PER_SOURCE, seed=0
        ),
        filesystem,
    )
    system = ActorSystem(ClusterSpec(accelerator_nodes=4, cpu_pods=1))
    handles = []
    for index, source in enumerate(catalog.sources()):
        handles.append(
            system.create_actor(
                lambda src=source: SourceLoader(src, filesystem, buffer_size=BUFFER_SIZE),
                name=f"loader-{index}",
                memory_bytes=GIB,
            )
        )
    store = InMemoryCheckpointStore()
    mixture = MixtureSchedule.uniform(catalog.names())
    tree = ClientPlaceTree(DeviceMesh(pp=1, dp=4, cp=1, tp=1, gpus_per_node=4))
    planner = Planner(
        strategy=backbone_balance_strategy(
            StrategyConfig(
                mixture=mixture, sample_count=BATCH_SAMPLES, num_microbatches=2
            )
        ),
        tree=tree,
        mixture=mixture,
        checkpoint_store=store,
        replay_window=CHECKPOINT_INTERVAL,
    )
    planner.register_loaders(handles)
    fault_manager = FaultToleranceManager(
        system, loader_checkpoint_interval=CHECKPOINT_INTERVAL
    )

    # The training run: one plan per step, every loader consumes its demands
    # (the live replay_demands semantics: refill iff something was consumed),
    # and the fault manager takes interval-gated checkpoints at
    # the per-step sync point.
    for step in range(num_steps):
        plan = planner.generate_plan(step)
        for handle in handles:
            ids = plan.source_demands.get(handle.instance().source.name, [])
            if ids:
                handle.call("replay_demands", list(ids))
        fault_manager.checkpoint_loaders(handles, step)

    victim = handles[0]
    loader = victim.instance()
    source_name = loader.source.name
    shard = (source_name, loader.shard_index, loader.shard_count)
    live_ids = _buffer_ids(victim)

    def replay_suffix(after_step: int) -> int:
        replayed = 0
        for plan in planner.plans_since(after_step):
            demanded = plan.source_demands.get(source_name, [])
            if demanded:
                victim.call("replay_demands", list(demanded))
            replayed += 1
        return replayed

    # Bounded: restore the newest differential checkpoint, replay
    # only the post-checkpoint plan suffix (store reads included in the cost).
    bounded_times = []
    for _ in range(REPETITIONS):
        begin = time.perf_counter()
        entry = fault_manager.shard_checkpoint(shard, num_steps)
        victim.call("restore_replay_checkpoint", entry["replay"])
        suffix_plans = replay_suffix(entry["step"])
        bounded_times.append(time.perf_counter() - begin)
    bounded_ids = _buffer_ids(victim)

    # Full: the pre-durability behaviour — reset to genesis, replay the run.
    full_times = []
    for _ in range(REPETITIONS):
        begin = time.perf_counter()
        victim.call("reset_for_replay")
        full_plans = replay_suffix(-1)
        full_times.append(time.perf_counter() - begin)
    full_ids = _buffer_ids(victim)

    # Both reconstructions must land on the live loader's exact buffer state.
    assert bounded_ids == live_ids
    assert full_ids == live_ids
    assert suffix_plans <= CHECKPOINT_INTERVAL
    assert full_plans == num_steps

    bounded_s = min(bounded_times)
    full_s = min(full_times)
    return {
        "steps": num_steps,
        "checkpoint_interval": CHECKPOINT_INTERVAL,
        "bounded_replay_plans": suffix_plans,
        "full_replay_plans": full_plans,
        "bounded_recovery_ms": bounded_s * 1e3,
        "full_recovery_ms": full_s * 1e3,
        "recoveries_per_s_bounded": 1.0 / bounded_s if bounded_s > 0 else float("inf"),
        "speedup": full_s / bounded_s if bounded_s > 0 else float("inf"),
    }


def _sweep(points) -> list[dict[str, object]]:
    return [_drive(steps) for steps in points]


def test_fig23_recovery_latency(benchmark):
    smoke = _smoke_mode()
    points = SMOKE_POINTS if smoke else SWEEP_POINTS
    rows = benchmark(_sweep, points)

    report = MetricReport(
        title="Fig. 23 (recovery) - loader recovery latency vs run length",
        columns=[
            "steps", "ckpt interval", "bounded plans", "full plans",
            "bounded ms", "full ms", "speedup",
        ],
    )
    for row in rows:
        report.add_row(
            row["steps"],
            row["checkpoint_interval"],
            row["bounded_replay_plans"],
            row["full_replay_plans"],
            round(row["bounded_recovery_ms"], 2),
            round(row["full_recovery_ms"], 2),
            round(row["speedup"], 2),
        )
    emit(report)

    write_bench_json(
        "fig23_recovery",
        "smoke" if smoke else "recovery_latency",
        {
            "rows": rows,
            "checkpoint_interval": CHECKPOINT_INTERVAL,
            "batch_samples": BATCH_SAMPLES,
            "repetitions": REPETITIONS,
        },
    )

    # Bounded replay work is capped by the interval at every run length.
    assert all(row["bounded_replay_plans"] <= CHECKPOINT_INTERVAL for row in rows)
    if not smoke:
        shortest, longest = rows[0], rows[-1]
        # Full replay is linear in the run: 16x the steps, >> the wall time.
        assert longest["full_recovery_ms"] > shortest["full_recovery_ms"]
        # Bounded recovery is flat: run length must not leak into the cost.
        assert longest["bounded_recovery_ms"] <= (
            FLATNESS_FACTOR * max(shortest["bounded_recovery_ms"], 1e-3)
        )
        # The tentpole claim: >= 5x faster than full replay at 1600 steps.
        assert longest["speedup"] >= REQUIRED_SPEEDUP
        # The gap widens with run length (O(interval) vs O(steps)).
        assert longest["speedup"] > shortest["speedup"]


def _checkpoint_job() -> TrainingJobSpec:
    return TrainingJobSpec(
        pp=1, dp=2, cp=1, tp=1, encoder=None, strategy="backbone_balance",
        samples_per_dp_step=4, num_microbatches=2, num_sources=3, samples_per_source=64,
        prefetch_depth=2, replay_window=CHECKPOINT_INTERVAL,
        # SQLite: the save pays for pickling its entry, as a durable store would.
        checkpoint_backend="sqlite", enable_autoscaler=False, seed=0,
    )


def _checkpoint_costs(points) -> list[dict[str, object]]:
    """Per run length: twin runs, one of which saves once at the end.

    The timed saves and restores of the different run lengths are interleaved
    (this box's speed drifts by up to 1.5x within seconds), so the ratio
    between two run lengths compares work, not the minute it was measured in.
    """
    job = _checkpoint_job()
    runs = []
    try:
        for num_steps in points:
            twin, system = MegaScaleData.deploy(job), MegaScaleData.deploy(job)
            runs.append((num_steps, twin, system))
            for _ in range(num_steps):
                twin.run_step()
                system.run_step()

        save_times = {num_steps: [] for num_steps in points}
        for _ in range(CHECKPOINT_REPETITIONS):
            for num_steps, _, system in runs:
                inflight = system.pipeline.inflight()
                begin = time.perf_counter()
                saved_at = system.save_checkpoint()
                save_times[num_steps].append(time.perf_counter() - begin)
                assert saved_at == num_steps and system.pipeline.inflight() == inflight

        rows = []
        for num_steps, twin, system in runs:
            stall = twin_stall = 0.0
            for _ in range(STEPS_AFTER_SAVE):
                twin_stall += twin.run_step().data_stall_s
                stall += system.run_step().data_stall_s
            rows.append({
                "steps": num_steps,
                "prefetch_depth": job.prefetch_depth,
                "virtual_stall_added_s": stall - twin_stall,
                "virtual_time_added_s": system.virtual_time_s() - twin.virtual_time_s(),
                "save_ms": min(save_times[num_steps]) * 1e3,
            })

        # The saving runs are abandoned here (no shutdown); every repetition
        # restores from what they left in their stores.
        restore_times = {num_steps: [] for num_steps in points}
        for _ in range(CHECKPOINT_REPETITIONS):
            for num_steps, _, system in runs:
                begin = time.perf_counter()
                restored = MegaScaleData.restore(job, system.checkpoint_store)
                restore_times[num_steps].append(time.perf_counter() - begin)
                assert restored.step == num_steps
                restored.shutdown()
        for row in rows:
            row["restore_ms"] = min(restore_times[row["steps"]]) * 1e3
    finally:
        for _, twin, system in runs:
            twin.shutdown()
            system.shutdown()
    return rows


def test_fig23_checkpoint_cost(benchmark):
    smoke = _smoke_mode()
    points = SMOKE_POINTS if smoke else SWEEP_POINTS
    rows = benchmark(_checkpoint_costs, points)

    report = MetricReport(
        title="Fig. 23 (checkpoint) - cost of one save beside the prefetch window",
        columns=["steps", "stall added s", "virtual time added s", "save ms", "restore ms"],
    )
    for row in rows:
        report.add_row(
            row["steps"], row["virtual_stall_added_s"], row["virtual_time_added_s"],
            round(row["save_ms"], 3), round(row["restore_ms"], 2),
        )
    emit(report)
    write_bench_json(
        "fig23_recovery",
        "checkpoint_cost_smoke" if smoke else "checkpoint_cost",
        {
            "rows": rows,
            "replay_window": CHECKPOINT_INTERVAL,
            "repetitions": CHECKPOINT_REPETITIONS,
        },
    )

    # A save stalls nobody: the twin that never saved ran the same clock.
    for row in rows:
        assert row["virtual_stall_added_s"] == 0.0
        assert row["virtual_time_added_s"] == 0.0
    if not smoke:
        shortest, longest = rows[0], rows[-1]
        assert longest["save_ms"] <= CHECKPOINT_FLATNESS_FACTOR * shortest["save_ms"]
        assert longest["restore_ms"] <= CHECKPOINT_FLATNESS_FACTOR * shortest["restore_ms"]
