"""Fig. 12 — comparison of data processing systems at 288 and 576 GPUs.

Regenerates the three panels for the Llama-12B + ViT-2B workload: average
training iteration time, average data fetch latency and average loader memory
per node, comparing five baseline architectures against MegaScale-Data.  The
expected shape: MegaScale-Data wins iteration time by ~2.5-4x (load-time
orchestration) and per-node memory by roughly an order of magnitude, while its
fetch latency stays small enough to be hidden behind training compute.
"""

from __future__ import annotations

from repro.baselines import ALL_BASELINES
from repro.baselines.megascale_model import MegaScaleArchitectureModel
from repro.metrics.report import MetricReport
from repro.training.flops import token_arrays
from repro.training.models import VLMConfig, llama_12b, vit_2b
from repro.training.simulator import TrainingSimulator
from repro.utils.units import bytes_to_gib

from .conftest import emit, sample_batch

SAMPLES_PER_DP_STEP = 64
NUM_MICROBATCHES = 8
TARGET_ITERATION_S = 30.0


def _evaluate_system(name, loader_cls, catalog, mesh, samples):
    loader = loader_cls(
        catalog,
        mesh,
        samples_per_dp_step=SAMPLES_PER_DP_STEP,
        num_microbatches=NUM_MICROBATCHES,
        target_iteration_time_s=TARGET_ITERATION_S,
    )
    report = loader.evaluate()
    assignments = loader.build_assignments(samples, seed=12)
    model = VLMConfig(encoder=vit_2b(), backbone=llama_12b())
    simulator = TrainingSimulator(model, mesh)
    iteration = simulator.simulate_iteration(token_arrays(assignments), data_fetch_latency_s=report.fetch_latency_s)
    return {
        "system": name,
        "iteration_s": iteration.iteration_time_s,
        "fetch_s": report.fetch_latency_s,
        "mem_per_node_gib": bytes_to_gib(report.per_node_memory_bytes),
        "exposed_fetch_s": iteration.exposed_fetch_time_s,
    }


def _compare(catalog, filesystem, mesh):
    samples = sample_batch(catalog, filesystem, SAMPLES_PER_DP_STEP * mesh.size("DP"), seed=7)
    rows = [
        _evaluate_system(name, cls, catalog, mesh, samples) for name, cls in ALL_BASELINES.items()
    ]
    rows.append(_evaluate_system("megascale", MegaScaleArchitectureModel, catalog, mesh, samples))
    return rows


def _report(rows, title):
    report = MetricReport(
        title=title,
        columns=["system", "iteration time (s)", "fetch latency (s)", "memory/node (GiB)"],
    )
    for row in rows:
        report.add_row(
            row["system"],
            round(row["iteration_s"], 2),
            round(row["fetch_s"], 2),
            round(row["mem_per_node_gib"], 2),
        )
    emit(report)


def _assert_shape(rows):
    by_name = {row["system"]: row for row in rows}
    ours = by_name["megascale"]
    torch = by_name["torch"]
    baseline_iterations = [row["iteration_s"] for name, row in by_name.items() if name != "megascale"]
    baseline_memory = [row["mem_per_node_gib"] for name, row in by_name.items() if name != "megascale"]
    # Iteration-time speedup (paper: up to 3.63x over the best baseline; the
    # analytical simulator reproduces the direction and a >1.25x margin).
    assert ours["iteration_s"] < min(baseline_iterations)
    assert torch["iteration_s"] / ours["iteration_s"] > 1.25
    # Memory reduction (paper: 4.2x at 288 GPUs, 14.5x at 576 GPUs).
    assert min(baseline_memory) / ours["mem_per_node_gib"] > 3.0
    # Fetch latency stays maskable behind compute.
    assert ours["exposed_fetch_s"] == 0.0


def test_fig12_288_gpus(benchmark, navit_catalog, filesystem, mesh_288):
    rows = benchmark(_compare, navit_catalog, filesystem, mesh_288)
    _report(rows, "Fig. 12 - 288 GPUs (TP=4, PP=8, DP=9), Llama-12B + ViT-2B")
    _assert_shape(rows)


def test_fig12_576_gpus(benchmark, navit_catalog, filesystem, mesh_576, mesh_288):
    rows = benchmark(_compare, navit_catalog, filesystem, mesh_576)
    _report(rows, "Fig. 12 - 576 GPUs (TP=4, PP=4, CP=4, DP=9), Llama-12B + ViT-2B")
    _assert_shape(rows)
    # The 576-GPU configuration has more CP/PP redundancy for the baselines to
    # waste, so MegaScale-Data's memory advantage grows versus 288 GPUs.
    rows_288 = _compare(navit_catalog, filesystem, mesh_288)

    def memory_ratio(rows_):
        by_name = {row["system"]: row for row in rows_}
        return by_name["torch"]["mem_per_node_gib"] / by_name["megascale"]["mem_per_node_gib"]

    assert memory_ratio(rows) > memory_ratio(rows_288) * 0.8
