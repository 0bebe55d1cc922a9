"""Fig. 20 (scheduler leg) — event-engine dispatch throughput vs actor count.

The paper's Fig. 20 sweep scales the data plane to thousands of loaders; in
that regime the simulator's own dispatcher must not be what throttles it.  The
virtual engine pops each event from a heap of per-actor queue heads,
O(E·log A) for E events over A actors, where a scan over every queue would be
O(E·A).  This benchmark drives a synthetic fetch-bound workload — per-loader
causal chains of poll/fetch tickets on multi-lane actors racing a trainer
consume stream — across {64, 256, 1024} loader actors and measures raw
dispatch throughput (events/sec of ``submit + drain``).  Every run must land
on :data:`FINAL_CLOCK_S`, the final virtual clock the linear-scan dispatcher
reached on the same schedule at ``a65cb3b``.

Results are written to ``BENCH_fig20_sched.json``; the CI ``scheduler-bench``
leg re-runs the small actor count in smoke mode and fails on a >30%
events/sec regression against the committed artifact.

Env knobs: ``BENCH_SCHED_SMOKE=1`` restricts the sweep to the smallest actor
count (CI smoke) and writes the ``smoke`` section of the artifact.
"""

from __future__ import annotations

import os
import time

from repro.actors.actor import Actor
from repro.actors.node import DEFAULT_ACCELERATOR_RESOURCES
from repro.actors.runtime import ActorSystem, ClusterSpec
from repro.metrics.report import MetricReport

from .conftest import emit, write_bench_json

ACTOR_COUNTS = (64, 256, 1024)
SMOKE_ACTOR_COUNTS = (64,)
EVENTS_PER_ACTOR = 4
#: Virtual duration of one synthetic fetch ticket.
TICKET_SECONDS = 0.01
#: Final virtual clock of the schedule at every actor count.
FINAL_CLOCK_S = 0.0606


class SyntheticLoader(Actor):
    """Minimal loader stand-in: the benchmark measures dispatch, not work."""

    role = "source_loader"

    def serve(self, ticket: int) -> int:
        return ticket


class SyntheticTrainer(Actor):
    role = "trainer"

    def consume(self, step: int) -> int:
        return step


def _smoke_mode() -> bool:
    return os.environ.get("BENCH_SCHED_SMOKE", "0") == "1"


def _drive(num_actors: int) -> dict[str, float]:
    """Submit and drain one synthetic fetch-bound schedule; time the engine."""
    per_node = int(DEFAULT_ACCELERATOR_RESOURCES.cpu_cores / 0.25) - 8
    cluster = ClusterSpec(accelerator_nodes=1 + num_actors // per_node, cpu_pods=1)
    system = ActorSystem(cluster)

    handles = [
        system.create_actor(
            SyntheticLoader,
            name=f"loader-{index}",
            cpu_cores=0.25,
            memory_bytes=1024,
            concurrency=2,
        )
        for index in range(num_actors)
    ]
    trainer = system.create_actor(
        SyntheticTrainer, name="trainer", cpu_cores=0.25, memory_bytes=1024
    )

    begin = time.perf_counter()
    submitted = 0
    for round_index in range(EVENTS_PER_ACTOR):
        # Per-loader causal chains: each round's ticket may not start before
        # the previous round's completion horizon, staggered per loader so
        # queue heads disagree and the dispatcher has real sorting to do.
        round_floor = round_index * TICKET_SECONDS
        for index, handle in enumerate(handles):
            handle.submit_timed(
                "serve",
                round_index,
                duration_s=TICKET_SECONDS,
                earliest_start_s=round_floor + (index % 7) * 1e-4,
                step_tag=round_index,
            )
            submitted += 1
        trainer.submit_timed(
            "consume", round_index, duration_s=TICKET_SECONDS * 2,
            earliest_start_s=round_floor, step_tag=round_index,
        )
        submitted += 1
    peak_pending = submitted
    executed = system.drain()
    elapsed = time.perf_counter() - begin

    assert executed == submitted
    assert system.clock_s == FINAL_CLOCK_S
    return {
        "actors": num_actors,
        "events": executed,
        "peak_pending": peak_pending,
        "indexed_wall_s": elapsed,
        "indexed_events_per_s": executed / elapsed if elapsed > 0 else float("inf"),
    }


def _sweep(actor_counts) -> list[dict[str, object]]:
    return [_drive(num_actors) for num_actors in actor_counts]


def test_fig20_scheduler_scalability(benchmark):
    smoke = _smoke_mode()
    actor_counts = SMOKE_ACTOR_COUNTS if smoke else ACTOR_COUNTS
    rows = benchmark(_sweep, actor_counts)

    report = MetricReport(
        title="Fig. 20 (scheduler) - dispatch throughput vs loader actor count",
        columns=["actors", "events", "indexed ev/s"],
    )
    for row in rows:
        report.add_row(row["actors"], row["events"], round(row["indexed_events_per_s"], 1))
    emit(report)

    write_bench_json(
        "fig20_sched",
        "smoke" if smoke else "scheduler_scalability",
        {"rows": rows, "events_per_actor": EVENTS_PER_ACTOR},
    )

