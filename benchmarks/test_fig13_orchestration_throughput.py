"""Fig. 13 — end-to-end orchestration throughput across models and contexts.

For each (encoder, backbone, dataset, context length) combination the paper
compares three configurations: Baseline (no scheduling), Backbone balance
(inter-microbatch balancing on the LLM backbone) and Hybrid balance (encoder
images balanced world-wide plus the backbone balance).  Expected shape:
hybrid >= backbone >= baseline throughput, with larger gains at longer
contexts and for larger encoders.
"""

from __future__ import annotations

import os
from dataclasses import replace

import numpy as np
import pytest

from repro.core.columns import SampleColumns
from repro.core.framework import MegaScaleData, TrainingJobSpec
from repro.core.place_tree import ClientPlaceTree
from repro.core.strategies import StrategyConfig, make_strategy
from repro.metrics.report import MetricReport
from repro.parallelism.mesh import DeviceMesh
from repro.training.models import VLMConfig, get_model
from repro.training.simulator import TrainingSimulator

from .conftest import emit, sample_batch, write_bench_json

MESH = DeviceMesh(pp=2, dp=4, cp=1, tp=2, gpus_per_node=16)
NUM_MICROBATCHES = 4
SAMPLES_PER_DP = 16
STRATEGIES = ("vanilla", "backbone_balance", "hybrid")


def _clip_context(samples, context_length):
    clipped = []
    for sample in samples:
        image = min(sample.image_tokens, int(context_length * 0.85))
        text = min(sample.text_tokens, context_length - image)
        clipped.append(sample.with_updates(image_tokens=image, text_tokens=max(1, text)))
    return clipped


def _throughput(strategy_name, samples, model):
    tree = ClientPlaceTree(MESH)
    config = StrategyConfig(num_microbatches=NUM_MICROBATCHES)
    strategy = make_strategy(strategy_name, config)
    plan = strategy(SampleColumns.from_samples(samples), tree, step=0, seed=0)

    encoder = plan.subplan["encoder"].module.token_bins() if "encoder" in plan.subplan else None
    simulator = TrainingSimulator(model, MESH)
    result = simulator.simulate_iteration(plan.module.token_bins(), encoder)
    return result.throughput_tokens_per_s


def _sweep(catalog, filesystem, combos):
    rows = []
    for encoder_name, backbone_name, context in combos:
        model = VLMConfig(encoder=get_model(encoder_name), backbone=get_model(backbone_name))
        samples = _clip_context(
            sample_batch(catalog, filesystem, SAMPLES_PER_DP * MESH.size("DP"), seed=13), context
        )
        throughputs = {name: _throughput(name, samples, model) for name in STRATEGIES}
        rows.append(
            {
                "encoder": encoder_name,
                "backbone": backbone_name,
                "context": context,
                **throughputs,
            }
        )
    return rows


def test_fig13_orchestration_throughput(benchmark, navit_catalog, filesystem):
    combos = [
        ("ViT-1B", "Llama-12B", 4096),
        ("ViT-1B", "Llama-12B", 8192),
        ("ViT-2B", "Llama-12B", 4096),
        ("ViT-2B", "Llama-12B", 8192),
        ("ViT-1B", "tMoE-25B", 8192),
        ("ViT-2B", "Mixtral-8x7B", 16384),
    ]
    rows = benchmark(_sweep, navit_catalog, filesystem, combos)

    report = MetricReport(
        title="Fig. 13 - throughput (tokens/s) by strategy",
        columns=["encoder", "backbone", "ctx", "baseline", "backbone balance", "hybrid",
                 "hybrid speedup"],
    )
    for row in rows:
        report.add_row(
            row["encoder"],
            row["backbone"],
            row["context"],
            round(row["vanilla"]),
            round(row["backbone_balance"]),
            round(row["hybrid"]),
            round(row["hybrid"] / row["vanilla"], 2),
        )
    emit(report)
    write_bench_json("fig13", "strategy_throughput", rows)

    speedups_backbone = [row["backbone_balance"] / row["vanilla"] for row in rows]
    speedups_hybrid = [row["hybrid"] / row["vanilla"] for row in rows]
    # Balancing always helps on average, and hybrid does not trail backbone-only.
    assert np.mean(speedups_backbone) > 1.05
    assert np.mean(speedups_hybrid) >= np.mean(speedups_backbone) * 0.95
    assert max(speedups_hybrid) > 1.2

    # Larger context lengths amplify the gains (4k vs 8k for ViT-1B + Llama).
    small_ctx = next(r for r in rows if r["context"] == 4096 and r["encoder"] == "ViT-1B")
    large_ctx = next(r for r in rows if r["context"] == 8192 and r["encoder"] == "ViT-1B" and r["backbone"] == "Llama-12B")
    assert large_ctx["hybrid"] / large_ctx["vanilla"] >= small_ctx["hybrid"] / small_ctx["vanilla"] * 0.9


# -- asynchronous prefetching pipeline -----------------------------------------------

PREFETCH_JOB = TrainingJobSpec(
    pp=1, dp=2, cp=1, tp=2, backbone="Llama-12B", encoder="ViT-1B",
    samples_per_dp_step=8, num_microbatches=2, max_sequence_length=8192,
    num_sources=6, samples_per_source=48, strategy="hybrid", seed=15,
)
PREFETCH_STEPS = 4


def _train_with_depth(depth):
    system = MegaScaleData.deploy(replace(PREFETCH_JOB, prefetch_depth=depth))
    try:
        return system.run_training(num_steps=PREFETCH_STEPS)
    finally:
        system.shutdown()


def test_fig13_prefetch_pipeline_throughput(benchmark):
    """End-to-end throughput of the same job with and without prefetching.

    The synchronous pull workflow (depth 0) leaves the full data-preparation
    latency on the iteration critical path; with ``prefetch_depth>=1`` the
    pipeline hides it behind the previous steps' compute, so throughput
    improves and the overlap metric reports hidden data time.
    """
    summaries = benchmark(lambda: {depth: _train_with_depth(depth) for depth in (0, 1, 2)})

    report = MetricReport(
        title="Fig. 13 (ext) - prefetch pipeline throughput",
        columns=["prefetch depth", "tokens/s", "avg iter (s)", "hidden data (s)",
                 "exposed data (s)", "hidden frac"],
    )
    for depth, summary in sorted(summaries.items()):
        report.add_row(
            depth,
            round(summary["throughput_tokens_per_s"]),
            round(summary["avg_iteration_time_s"], 3),
            round(summary["hidden_data_time_s"], 3),
            round(summary["exposed_data_time_s"], 3),
            round(summary["hidden_data_fraction"], 3),
        )
    emit(report)
    write_bench_json(
        "fig13",
        "prefetch_pipeline",
        {f"depth_{depth}": summary for depth, summary in summaries.items()},
    )

    sync, depth1, depth2 = summaries[0], summaries[1], summaries[2]
    # Prefetching strictly improves throughput on the same job spec...
    assert depth1["throughput_tokens_per_s"] > sync["throughput_tokens_per_s"]
    assert depth2["throughput_tokens_per_s"] > sync["throughput_tokens_per_s"]
    # ...because data time moved off the critical path.
    assert sync["hidden_data_time_s"] == 0.0
    assert depth1["hidden_data_time_s"] > 0.0
    assert depth2["hidden_data_time_s"] > 0.0
    assert depth1["exposed_data_time_s"] < sync["exposed_data_time_s"]
    # A deeper pipeline never hides less than a shallower one.
    assert depth2["hidden_data_time_s"] >= depth1["hidden_data_time_s"] * 0.999


def test_fig13_prefetch_depth_matrix_smoke(benchmark):
    """One-depth smoke pass for the CI prefetch matrix.

    ``BENCH_PREFETCH_DEPTH`` (set by the workflow matrix leg) selects a
    single depth; locally, all three run.  Each leg writes its own section
    of the BENCH_fig13.json artifact, which the workflow uploads so the perf
    trajectory is tracked across PRs.
    """
    depth_env = os.environ.get("BENCH_PREFETCH_DEPTH")
    depths = [int(depth_env)] if depth_env else [0, 1, 2]
    summaries = benchmark(lambda: {depth: _train_with_depth(depth) for depth in depths})

    report = MetricReport(
        title="Fig. 13 (smoke) - prefetch depth matrix leg",
        columns=["prefetch depth", "tokens/s", "hidden (s)", "stall (s)", "virtual wall (s)"],
    )
    for depth, summary in sorted(summaries.items()):
        report.add_row(
            depth,
            round(summary["throughput_tokens_per_s"]),
            round(summary["hidden_data_time_s"], 3),
            round(summary["data_stall_time_s"], 3),
            round(summary["virtual_wall_time_s"], 3),
        )
        write_bench_json("fig13", f"prefetch_depth_{depth}", summary)
    emit(report)

    for summary in summaries.values():
        assert summary["throughput_tokens_per_s"] > 0.0
        assert summary["virtual_wall_time_s"] > 0.0
        # The co-simulation's books balance: hidden + exposed == total fetch.
        fetch_total = summary["steps"] * summary["avg_fetch_latency_s"]
        assert summary["hidden_data_time_s"] + summary["exposed_data_time_s"] == pytest.approx(
            fetch_total
        )
