"""Table 2 — API cost of the orchestration primitives under scaled setups.

The paper measures the latency of the ``cost`` and ``balance`` primitives for
the Llama-12B + ViT-2B job while scaling batch size, sequence length, cluster
size and the ``group_size`` knob, and shows the cost remains orders of
magnitude below the iteration time; group_size controls growth on very large
clusters.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.columns import SampleColumns
from repro.core.dgraph import DGraph, metas_token
from repro.core.place_tree import ClientPlaceTree
from repro.data.synthetic import build_source_catalog, navit_like_spec
from repro.metrics.report import MetricReport
from repro.parallelism.mesh import DeviceMesh
from repro.storage.filesystem import SimulatedFileSystem
from repro.training.models import VLMConfig, get_model
from repro.training.simulator import TrainingSimulator

from .conftest import emit, sample_batch


@pytest.fixture(scope="module")
def large_catalog_fs():
    """A catalog big enough for the 1152-GPU, BS-144 sweep (no wrap-around)."""
    filesystem = SimulatedFileSystem()
    catalog = build_source_catalog(
        navit_like_spec(num_sources=60, samples_per_source=96, seed=21), filesystem
    )
    return catalog, filesystem

CASES = [
    # label, dp, samples_per_dp, max tokens, group_size
    ("baseline (288 GPUs, BS 72, 8k)", DeviceMesh(pp=8, dp=9, cp=1, tp=4, gpus_per_node=16), 72, 8192, None),
    ("+BS 72->144", DeviceMesh(pp=8, dp=9, cp=1, tp=4, gpus_per_node=16), 144, 8192, None),
    ("+Seq 8k->16k", DeviceMesh(pp=8, dp=9, cp=1, tp=4, gpus_per_node=16), 72, 16384, None),
    ("+Cluster 288->1152", DeviceMesh(pp=8, dp=36, cp=1, tp=4, gpus_per_node=16), 72, 8192, None),
    ("+Group 1->2 (1152 GPUs)", DeviceMesh(pp=8, dp=36, cp=1, tp=4, gpus_per_node=16), 72, 8192, 2),
]


def _clip(samples, limit):
    return [
        s.with_updates(
            image_tokens=min(s.image_tokens, int(limit * 0.85)),
            text_tokens=max(1, min(s.text_tokens, limit - min(s.image_tokens, int(limit * 0.85)))),
        )
        for s in samples
    ]


def _measure_case(catalog, filesystem, mesh, samples_per_dp, seq, group_size):
    samples = _clip(sample_batch(catalog, filesystem, samples_per_dp * mesh.size("DP"), seed=2), seq)
    tree = ClientPlaceTree(mesh)
    dgraph = DGraph.from_buffer_infos(SampleColumns.from_samples(samples), metas_token).init(tree)
    dgraph.distribute("DP", group_size=group_size)
    dgraph.cost(lambda rows: rows.total_tokens.astype(float) ** 2)
    dgraph.balance(num_microbatches=8)
    plan = dgraph.plan()

    # Coarsened bucket counts leave DP ranks idle: those get empty microbatches.
    bins = plan.module.token_bins()
    idle = (mesh.size("DP") - bins.num_buckets) * bins.num_microbatches
    tokens = replace(bins, offsets=bins.offsets + bins.offsets[-1:] * idle, num_buckets=mesh.size("DP"))
    model = VLMConfig(encoder=get_model("ViT-2B"), backbone=get_model("Llama-12B"))
    iteration = TrainingSimulator(model, mesh).simulate_iteration(tokens)
    return {
        "cost_s": dgraph.api_costs.get("cost", 0.0),
        "balance_s": dgraph.api_costs.get("balance", 0.0),
        "iteration_s": iteration.iteration_time_s,
        "buckets": plan.module.num_buckets,
    }


def test_table2_api_cost(benchmark, large_catalog_fs):
    catalog, filesystem = large_catalog_fs
    rows = benchmark(
        lambda: [
            (label, _measure_case(catalog, filesystem, mesh, bs, seq, group))
            for label, mesh, bs, seq, group in CASES
        ]
    )

    report = MetricReport(
        title="Table 2 - orchestration API cost per step",
        columns=["case", "cost() (s)", "balance() (s)", "iteration (s)", "buckets"],
    )
    for label, row in rows:
        report.add_row(label, round(row["cost_s"], 5), round(row["balance_s"], 5),
                       round(row["iteration_s"], 2), row["buckets"])
    emit(report)

    by_label = dict(rows)
    baseline = by_label["baseline (288 GPUs, BS 72, 8k)"]
    bigger_cluster = by_label["+Cluster 288->1152"]
    grouped = by_label["+Group 1->2 (1152 GPUs)"]

    # API cost is always negligible relative to the iteration time.
    for _, row in rows:
        assert row["cost_s"] + row["balance_s"] < 0.05 * row["iteration_s"]
    # Cost grows with batch size and cluster size ...
    assert by_label["+BS 72->144"]["balance_s"] > baseline["balance_s"]
    assert bigger_cluster["balance_s"] > baseline["balance_s"]
    # ... and group_size reins the cluster-size growth back in.
    assert grouped["balance_s"] < bigger_cluster["balance_s"]
    assert grouped["buckets"] < bigger_cluster["buckets"]
