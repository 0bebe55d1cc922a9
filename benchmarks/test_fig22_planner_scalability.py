"""Fig. 22 (planner leg) — plan-generation throughput vs buffer depth × sources.

With event *dispatch* at O(E·log A), what bounds the simulator next is the
per-step planning cycle itself.  Every plan, the Planner gathers a copy of
each loader's buffered id and token columns (``buffer_delta``) and
concatenates them into one column set; the modelled gather charge counts only
the rows changed since the previous plan.  The DGraph mixes, costs and
finalizes over column arrays built for the selected rows only, with lazy
lineage, so a plan costs array copies over every buffered row (no per-row
Python work) plus O(selected samples) of array work.
This benchmark sweeps buffer depth × source count and measures raw planning
throughput (plans/sec of ``Planner.generate_plan``).

Between timed plans each loader *consumes* its demanded ids and refills
(``replay_demands``), so the planner is measured in its steady state:
per-step buffer changes proportional to the batch, not to the buffer.
Every sweep point's per-step source demands are checked against a digest
recorded from the retired full-copy/row-mode planner at commit ``a95f6d8``,
where both planners demanded identical samples.

Results are written to ``BENCH_fig22_planner.json``; the CI ``planner-bench``
leg re-runs the middle sweep point in smoke mode and fails on a >30%
plans/sec regression against the committed artifact via
``gate.py plan``.

Env knobs: ``BENCH_PLANNER_SMOKE=1`` restricts the sweep to the middle point
(CI smoke — the smallest point's timed region is too short to gate on) and
writes the ``smoke`` section of the artifact.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

from repro.actors.runtime import ActorSystem, ClusterSpec
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

#: (buffer depth per source, source count) sweep; total buffered metadata
#: ranges from 2k to ~100k samples.  The smoke point must stay in the full
#: sweep so the CI gate can compare fresh smoke rows against committed ones.
SWEEP_POINTS = ((256, 8), (1024, 16), (4096, 24))
#: The smoke (CI) point is the *middle* sweep point: the smallest one's
#: timed region is a few milliseconds, which is too noisy to gate on.
SMOKE_POINTS = ((1024, 16),)
#: Samples mixed per plan (the per-step batch) — fixed across the sweep so
#: depth scales only the *buffered* metadata, as in a deep-prefetch fleet.
BATCH_SAMPLES = 64
TIMED_STEPS = 10
#: sha256 of each sweep point's ``demand_trace`` (JSON, sorted keys), recorded
#: from the retired ``planning="legacy"`` drive at commit ``a95f6d8``.
DEMAND_TRACE_DIGESTS = {
    (256, 8): "420171088b7b220910372db65252897189c2831854dfd5ee7d315f070f457e5f",
    (1024, 16): "31147638f5c8347ac506e1d0ff49b27d3dade6a47de4981efde959069d1e942b",
    (4096, 24): "acf63b3aac3a3c65a0720f6318a753e934700e1ddf3f46bef7ee2d209da4934b",
}


def _smoke_mode() -> bool:
    return os.environ.get("BENCH_PLANNER_SMOKE", "0") == "1"


def _drive(depth: int, num_sources: int) -> dict[str, object]:
    """Time ``generate_plan`` over a churning fleet; return rate + demands."""
    filesystem = SimulatedFileSystem()
    catalog = build_source_catalog(
        navit_like_spec(num_sources=num_sources, samples_per_source=depth, seed=0),
        filesystem,
    )
    system = ActorSystem(ClusterSpec(accelerator_nodes=4, cpu_pods=1))
    handles = []
    for index, source in enumerate(catalog.sources()):
        handles.append(
            system.create_actor(
                lambda src=source: SourceLoader(src, filesystem, buffer_size=depth),
                name=f"loader-{index}",
                memory_bytes=GIB,
            )
        )
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
    )
    planner.register_loaders(handles)

    planner.generate_plan(0)  # warm-up: the gather's one-time resync charge
    plan_seconds = 0.0
    demand_trace: list[dict[str, list[int]]] = []
    for step in range(1, TIMED_STEPS + 1):
        begin = time.perf_counter()
        plan = planner.generate_plan(step)
        plan_seconds += time.perf_counter() - begin
        demand_trace.append(plan.source_demands)
        # Steady-state churn (untimed): every loader consumes its demanded
        # ids and refills, so the next gather is charged ~one batch of changes.
        for handle in handles:
            ids = plan.source_demands.get(handle.instance().source.name, [])
            if ids:
                handle.call("replay_demands", list(ids))
    return {
        "depth": depth,
        "sources": num_sources,
        "buffered_samples": depth * num_sources,
        "plans": TIMED_STEPS,
        "plan_wall_s": plan_seconds,
        "plans_per_s": TIMED_STEPS / plan_seconds if plan_seconds > 0 else float("inf"),
        "demand_trace": demand_trace,
    }


def _sweep(points) -> list[dict[str, object]]:
    rows = []
    for depth, num_sources in points:
        drive = _drive(depth, num_sources)
        # Identical schedule, identical churn: the planner must demand the
        # exact samples the recorded reference demanded, every step.
        trace = json.dumps(drive["demand_trace"], sort_keys=True).encode()
        assert hashlib.sha256(trace).hexdigest() == DEMAND_TRACE_DIGESTS[
            (depth, num_sources)
        ]
        rows.append(
            {
                "depth": depth,
                "sources": num_sources,
                "buffered_samples": depth * num_sources,
                "batch_samples": BATCH_SAMPLES,
                "columnar_plans_per_s": drive["plans_per_s"],
            }
        )
    return rows


def test_fig22_planner_scalability(benchmark):
    smoke = _smoke_mode()
    points = SMOKE_POINTS if smoke else SWEEP_POINTS
    rows = benchmark(_sweep, points)

    report = MetricReport(
        title="Fig. 22 (planner) - plan throughput vs buffer depth x sources",
        columns=["depth", "sources", "buffered", "plans/s"],
    )
    for row in rows:
        report.add_row(
            row["depth"],
            row["sources"],
            row["buffered_samples"],
            round(row["columnar_plans_per_s"], 1),
        )
    emit(report)

    write_bench_json(
        "fig22_planner",
        "smoke" if smoke else "planner_scalability",
        {"rows": rows, "timed_steps": TIMED_STEPS, "batch_samples": BATCH_SAMPLES},
    )
