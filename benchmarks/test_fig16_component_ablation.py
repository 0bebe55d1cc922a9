"""Fig. 16 — contribution of each MegaScale-Data component.

The paper ablates, on the 576-GPU trial: (a) the baseline loader,
(b) +Disaggregation (Source Loaders / Data Constructors, no balancing),
(c) +Orchestration (hybrid load balancing), (d) +AutoScaler and
(e) +Fault Tolerance (two shadow loaders).  Expected shape: disaggregation
cuts loader memory by roughly an order of magnitude at a ~10% latency cost,
orchestration brings a large speedup at negligible memory cost, the
AutoScaler trims memory further, and fault tolerance adds a predictable
memory premium without hurting speed.
"""

from __future__ import annotations

from repro.baselines.megascale_model import MegaScaleArchitectureModel
from repro.baselines.torch_loader import TorchColocatedLoader
from repro.core.autoscaler import ResourceBudget, SourceAutoPartitioner
from repro.metrics.report import MetricReport
from repro.training.flops import token_arrays
from repro.training.models import VLMConfig, llama_12b, vit_2b
from repro.training.simulator import TrainingSimulator
from repro.utils.units import GIB, bytes_to_gib

from .conftest import emit, sample_batch

SAMPLES_PER_DP = 48
NUM_MICROBATCHES = 6


class _DisaggregatedOnly(MegaScaleArchitectureModel):
    """Disaggregated loaders/constructors but no cost-based balancing."""

    def build_assignments(self, samples, seed: int = 0):
        return TorchColocatedLoader.build_assignments(self, samples, seed)


def _ablation(catalog, filesystem, mesh):
    samples = sample_batch(catalog, filesystem, SAMPLES_PER_DP * mesh.size("DP"), seed=16)
    model = VLMConfig(encoder=vit_2b(), backbone=llama_12b())
    simulator = TrainingSimulator(model, mesh)
    kwargs = {"samples_per_dp_step": SAMPLES_PER_DP, "num_microbatches": NUM_MICROBATCHES,
              "target_iteration_time_s": 30.0}

    def run(loader, label):
        report = loader.evaluate()
        iteration = simulator.simulate_iteration(
            token_arrays(loader.build_assignments(samples, seed=16)),
            data_fetch_latency_s=report.fetch_latency_s,
        )
        return {
            "label": label,
            "iteration_s": iteration.iteration_time_s,
            "memory_gib": bytes_to_gib(report.total_memory_bytes),
        }

    rows = []
    baseline = TorchColocatedLoader(catalog, mesh, **kwargs)
    rows.append(run(baseline, "(a) Baseline"))
    disagg = _DisaggregatedOnly(catalog, mesh, **kwargs)
    rows.append(run(disagg, "(b) + Disaggregation"))
    orchestrated = MegaScaleArchitectureModel(catalog, mesh, **kwargs)
    rows.append(run(orchestrated, "(c) + Orchestration"))

    # (d) + AutoScaler: re-partition under a tight memory budget, trimming the
    # per-source worker allocation (memory drops, latency unchanged).
    autoscaled = MegaScaleArchitectureModel(catalog, mesh, **kwargs)
    autoscaled.partition_plan = SourceAutoPartitioner(max_workers_per_source=8).partition(
        catalog, ResourceBudget(cpu_cores=256.0, memory_bytes=24 * GIB)
    )
    rows.append(run(autoscaled, "(d) + AutoScaler"))

    # (e) + Fault Tolerance: two shadow loaders add their resident state.
    with_ft = run(MegaScaleArchitectureModel(catalog, mesh, **kwargs), "(e) + Fault Tolerance")
    shadow_state = 2 * (autoscaled.memory_breakdown()["source_state"] / max(1, autoscaled.partition_plan.total_actors()))
    with_ft["memory_gib"] = rows[-1]["memory_gib"] + bytes_to_gib(shadow_state * 64)
    rows.append(with_ft)
    return rows


def test_fig16_component_ablation(benchmark, navit_catalog, filesystem, mesh_576):
    rows = benchmark(_ablation, navit_catalog, filesystem, mesh_576)

    baseline = rows[0]
    report = MetricReport(
        title="Fig. 16 - component contributions (576-GPU configuration)",
        columns=["configuration", "iteration time (s)", "relative speed", "memory (GiB)",
                 "relative memory"],
    )
    for row in rows:
        report.add_row(
            row["label"],
            round(row["iteration_s"], 2),
            round(baseline["iteration_s"] / row["iteration_s"], 2),
            round(row["memory_gib"], 2),
            round(row["memory_gib"] / baseline["memory_gib"], 3),
        )
    emit(report)

    by_label = {row["label"]: row for row in rows}
    disagg = by_label["(b) + Disaggregation"]
    orchestration = by_label["(c) + Orchestration"]
    autoscaler = by_label["(d) + AutoScaler"]
    fault_tolerance = by_label["(e) + Fault Tolerance"]

    # Disaggregation slashes memory (paper: ~9x) at a small latency cost (<= ~15%).
    assert disagg["memory_gib"] < 0.3 * baseline["memory_gib"]
    assert disagg["iteration_s"] <= baseline["iteration_s"] * 1.15
    # Orchestration recovers speed (paper: 2.7x) with negligible memory change.
    assert orchestration["iteration_s"] < disagg["iteration_s"]
    assert orchestration["iteration_s"] < baseline["iteration_s"]
    assert abs(orchestration["memory_gib"] - disagg["memory_gib"]) < 0.2 * disagg["memory_gib"] + 1.0
    # The AutoScaler trims memory further without slowing the iteration.
    assert autoscaler["memory_gib"] <= orchestration["memory_gib"] * 1.01
    assert autoscaler["iteration_s"] <= orchestration["iteration_s"] * 1.05
    # Fault tolerance costs memory but not time.
    assert fault_tolerance["memory_gib"] > autoscaler["memory_gib"]
    assert fault_tolerance["iteration_s"] <= orchestration["iteration_s"] * 1.05
