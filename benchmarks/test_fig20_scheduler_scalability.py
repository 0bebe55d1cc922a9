"""Fig. 20 (scheduler leg) — event-engine dispatch throughput vs actor count.

The paper's Fig. 20 sweep scales the data plane to thousands of loaders; what
throttled our simulator in that regime was not the modelled system but the
*simulator's own dispatcher*: the PR-2 engine popped every event with a
linear scan over all actor queues, O(E·A) for E events over A actors.  This
benchmark drives a synthetic fetch-bound workload — per-loader causal chains
of poll/fetch tickets on multi-lane actors racing a trainer consume stream —
across {64, 256, 1024} loader actors under both dispatchers and measures raw
dispatch throughput (events/sec of ``submit + drain``).

The indexed dispatcher must deliver **>= 5x** the linear-scan throughput at
1024 actors (it is O(E·log A); the gap widens with A).  Both dispatchers are
asserted to land on the identical final virtual clock — same schedule, only
cheaper dispatch.  Results are written to ``BENCH_fig20_sched.json``; the CI
``scheduler-bench`` leg re-runs the small actor count in smoke mode and
fails on a >30% events/sec regression against the committed artifact.

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
#: Required indexed-over-linear dispatch speedup at the largest actor count.
REQUIRED_SPEEDUP = 5.0


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


def _drive(dispatcher: str, num_actors: int) -> dict[str, float]:
    """Submit and drain one synthetic fetch-bound schedule; time the engine."""
    per_node = int(DEFAULT_ACCELERATOR_RESOURCES.cpu_cores / 0.25) - 8
    cluster = ClusterSpec(accelerator_nodes=1 + num_actors // per_node, cpu_pods=1)
    system = ActorSystem(cluster, dispatcher=dispatcher)

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
    return {
        "actors": num_actors,
        "events": executed,
        "peak_pending": peak_pending,
        "wall_s": elapsed,
        "events_per_s": executed / elapsed if elapsed > 0 else float("inf"),
        "final_clock_s": system.clock_s,
    }


def _sweep(actor_counts) -> list[dict[str, object]]:
    rows = []
    for num_actors in actor_counts:
        linear = _drive("linear", num_actors)
        indexed = _drive("indexed", num_actors)
        # Same schedule on both dispatchers: only the dispatch cost differs.
        assert indexed["final_clock_s"] == linear["final_clock_s"]
        assert indexed["events"] == linear["events"]
        rows.append(
            {
                "actors": num_actors,
                "events": indexed["events"],
                "peak_pending": indexed["peak_pending"],
                "linear_wall_s": linear["wall_s"],
                "indexed_wall_s": indexed["wall_s"],
                "linear_events_per_s": linear["events_per_s"],
                "indexed_events_per_s": indexed["events_per_s"],
                "speedup": indexed["events_per_s"] / linear["events_per_s"],
            }
        )
    return rows


def test_fig20_scheduler_scalability(benchmark):
    smoke = _smoke_mode()
    actor_counts = SMOKE_ACTOR_COUNTS if smoke else ACTOR_COUNTS
    rows = benchmark(_sweep, actor_counts)

    report = MetricReport(
        title="Fig. 20 (scheduler) - dispatch throughput vs loader actor count",
        columns=[
            "actors", "events", "linear ev/s", "indexed ev/s", "speedup",
        ],
    )
    for row in rows:
        report.add_row(
            row["actors"],
            row["events"],
            round(row["linear_events_per_s"], 1),
            round(row["indexed_events_per_s"], 1),
            round(row["speedup"], 2),
        )
    emit(report)

    write_bench_json(
        "fig20_sched",
        "smoke" if smoke else "scheduler_scalability",
        {"rows": rows, "events_per_actor": EVENTS_PER_ACTOR},
    )

    by_actors = {row["actors"]: row for row in rows}
    if not smoke:
        # The tentpole claim: >= 5x dispatch throughput at 1024 actors.
        assert by_actors[1024]["speedup"] >= REQUIRED_SPEEDUP
        # The gap must widen with scale (O(E log A) vs O(E A)).
        assert by_actors[1024]["speedup"] > by_actors[64]["speedup"]
