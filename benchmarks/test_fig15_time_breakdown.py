"""Fig. 15 — component time breakdown as the job scales.

Deploys the full actor-based data plane and reports the per-step latency of
each component (Planner buffer gather / plan compute / plan broadcast, Source
Loader preparation, Data Constructor collation) while scaling the number of
sources, the context length, the batch size and the cluster size.  The shape
to reproduce: the total data-pipeline overhead stays far below the training
iteration time in every configuration, and grows gracefully with scale.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.framework import MegaScaleData, TrainingJobSpec, fetch_bound_gpu_spec
from repro.metrics.report import MetricReport

from .conftest import emit, write_bench_json

BASE = TrainingJobSpec(
    pp=1, dp=2, cp=1, tp=2, backbone="Llama-12B", encoder="ViT-1B",
    samples_per_dp_step=8, num_microbatches=2, max_sequence_length=8192,
    num_sources=6, samples_per_source=48, strategy="hybrid", seed=15,
)

VARIANTS = [
    ("baseline", BASE),
    ("sources x2", replace(BASE, num_sources=12, samples_per_source=24)),
    ("context x4", replace(BASE, max_sequence_length=32768)),
    ("batch x2", replace(BASE, samples_per_dp_step=16)),
    ("gpus x2", replace(BASE, dp=4)),
]


def _measure(job):
    system = MegaScaleData.deploy(job)
    result = system.run_step(simulate=True)
    timings = result.plan_timings
    row = {
        "buffer_gather_s": timings.buffer_gather_s,
        "compute_plan_s": timings.compute_plan_s,
        "broadcast_plan_s": timings.broadcast_plan_s,
        "source_loader_s": result.loader_wall_clock_s,
        "data_constructor_s": result.constructor_collate_s,
        "total_pipeline_s": result.data_fetch_latency_s,
        "iteration_s": result.iteration.iteration_time_s,
    }
    system.shutdown()
    return row


def test_fig15_time_breakdown(benchmark):
    rows = benchmark(lambda: [(name, _measure(job)) for name, job in VARIANTS])

    report = MetricReport(
        title="Fig. 15 - per-step component breakdown vs scaling dimension",
        columns=["variant", "gather (ms)", "plan (ms)", "broadcast (ms)", "loader (ms)",
                 "constructor (ms)", "pipeline total (s)", "iteration (s)"],
    )
    for name, row in rows:
        report.add_row(
            name,
            round(1e3 * row["buffer_gather_s"], 2),
            round(1e3 * row["compute_plan_s"], 2),
            round(1e3 * row["broadcast_plan_s"], 2),
            round(1e3 * row["source_loader_s"], 2),
            round(1e3 * row["data_constructor_s"], 2),
            round(row["total_pipeline_s"], 3),
            round(row["iteration_s"], 2),
        )
    emit(report)
    by_name = dict(rows)
    write_bench_json("fig15", "component_breakdown", by_name)

    # The data pipeline overhead is always hidden behind the iteration time.
    for name, row in rows:
        assert row["total_pipeline_s"] < row["iteration_s"]
    # More sources cost more gather time, but only modestly.
    assert by_name["sources x2"]["buffer_gather_s"] >= by_name["baseline"]["buffer_gather_s"]
    assert by_name["sources x2"]["buffer_gather_s"] < 10 * by_name["baseline"]["buffer_gather_s"]
    # Larger batches increase planning/collation work, and training time scales
    # commensurately so the overhead remains masked.
    assert by_name["batch x2"]["compute_plan_s"] >= by_name["baseline"]["compute_plan_s"] * 0.9
    assert by_name["batch x2"]["iteration_s"] > by_name["baseline"]["iteration_s"]


def test_fig15_prefetch_overlap_breakdown(benchmark):
    """Per-step exposed vs hidden data time once the prefetch pipeline warms up."""

    def _run():
        system = MegaScaleData.deploy(replace(BASE, prefetch_depth=2))
        try:
            results = [system.run_step(simulate=True) for _ in range(4)]
            return [
                {
                    "step": result.step,
                    "fetch_s": result.data_fetch_latency_s,
                    "hidden_s": result.hidden_fetch_s,
                    "exposed_s": result.exposed_fetch_s,
                    "iteration_s": result.iteration.iteration_time_s,
                }
                for result in results
            ], system.overlap.hidden_fraction()
        finally:
            system.shutdown()

    rows, hidden_fraction = benchmark(_run)

    report = MetricReport(
        title="Fig. 15 (ext) - prefetch overlap per step",
        columns=["step", "fetch (ms)", "hidden (ms)", "exposed (ms)", "iteration (s)"],
    )
    for row in rows:
        report.add_row(
            row["step"],
            round(1e3 * row["fetch_s"], 2),
            round(1e3 * row["hidden_s"], 2),
            round(1e3 * row["exposed_s"], 2),
            round(row["iteration_s"], 2),
        )
    emit(report)

    # The first step has no compute window to hide behind; every later step
    # overlaps its (small) fetch entirely.
    assert rows[0]["hidden_s"] == 0.0
    for row in rows[1:]:
        assert row["hidden_s"] > 0.0
        assert row["exposed_s"] < row["fetch_s"]
    assert hidden_fraction > 0.5
    write_bench_json(
        "fig15", "prefetch_overlap", {"steps": rows, "hidden_fraction": hidden_fraction}
    )


def test_fig15_fetch_bound_depth_scaling(benchmark):
    """A fetch-bound job: one compute window cannot hide the fetch chain.

    The probe step measures the default compute/fetch ratio, then the GPU
    spec is scaled so one iteration's compute window is ~0.42x the fetch
    chain.  On that job the virtual-clock co-simulation shows strictly more
    hidden data time at ``prefetch_depth=2`` than at ``prefetch_depth=1``
    (and the ledger's books reconcile with the virtual wall clock) — the
    deep-pipeline fidelity the heuristic overlap credit could not express.
    """

    # Calibrate once, outside the benchmarked closure, so the measured time
    # covers only the depth-scaling runs (not the probe deploy + step).
    gpu = fetch_bound_gpu_spec(BASE)

    def _run():
        summaries = {}
        reconciliation = {}
        for depth in (1, 2):
            system = MegaScaleData.deploy(replace(BASE, prefetch_depth=depth, gpu_spec=gpu))
            try:
                summaries[depth] = system.run_training(num_steps=6)
                ledger = system.overlap
                compute_total = sum(
                    r.iteration.iteration_time_s - r.iteration.exposed_fetch_time_s
                    for r in system.history()
                )
                reconciliation[depth] = {
                    "fetch_total_s": ledger.fetch_total_s(),
                    "hidden_plus_exposed_s": ledger.hidden_total_s() + ledger.exposed_total_s(),
                    "stall_total_s": ledger.stall_total_s(),
                    "compute_total_s": compute_total,
                    "rpc_slack_s": 6 * system.system.rpc_latency_s,
                }
            finally:
                system.shutdown()
        return summaries, reconciliation

    summaries, reconciliation = benchmark(_run)

    report = MetricReport(
        title="Fig. 15 (ext) - fetch-bound job, hidden time vs prefetch depth",
        columns=["prefetch depth", "hidden (s)", "exposed (s)", "stall (s)", "virtual wall (s)"],
    )
    for depth, summary in sorted(summaries.items()):
        report.add_row(
            depth,
            round(summary["hidden_data_time_s"], 3),
            round(summary["exposed_data_time_s"], 3),
            round(summary["data_stall_time_s"], 3),
            round(summary["virtual_wall_time_s"], 3),
        )
    emit(report)
    write_bench_json(
        "fig15",
        "fetch_bound_depth_scaling",
        {f"depth_{depth}": summary for depth, summary in summaries.items()},
    )

    depth1, depth2 = summaries[1], summaries[2]
    # The acceptance property: a deeper pipeline hides strictly more of a
    # fetch chain that one iteration cannot cover...
    assert depth2["hidden_data_time_s"] > depth1["hidden_data_time_s"]
    assert depth2["exposed_data_time_s"] < depth1["exposed_data_time_s"]
    # ...which shows up as real end-to-end time on the virtual clock.
    assert depth2["virtual_wall_time_s"] < depth1["virtual_wall_time_s"]
    # The ledger's books reconcile with the virtual-clock wall time.
    for depth, checks in reconciliation.items():
        assert checks["hidden_plus_exposed_s"] == pytest.approx(
            checks["fetch_total_s"], abs=1e-9
        )
        wall = summaries[depth]["virtual_wall_time_s"]
        assert wall == pytest.approx(
            checks["compute_total_s"] + checks["stall_total_s"] + checks["rpc_slack_s"],
            rel=1e-9,
        )
