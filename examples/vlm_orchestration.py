"""VLM orchestration: write a hybrid balancing strategy with the DGraph API.

Mirrors the Fig. 9 listing of the paper: the backbone view of the buffered
metadata is distributed across DP ranks and balanced with a quadratic-token
cost model, while the encoder view of the *same* buffer is distributed across
every GPU and balanced on image patches.  The example then compares the
simulated iteration time of the resulting plan against the unbalanced
arrival-order plan for three context lengths.

    python examples/vlm_orchestration.py
"""

from __future__ import annotations

from repro.core.columns import SampleColumns
from repro.core.cost_model import BackboneCostModel, EncoderCostModel
from repro.core.dgraph import DGraph, metas_image, metas_token
from repro.core.place_tree import ClientPlaceTree
from repro.data.synthetic import build_source_catalog, navit_like_spec
from repro.parallelism.mesh import DeviceMesh
from repro.storage.filesystem import SimulatedFileSystem
from repro.training.models import VLMConfig, get_model
from repro.training.simulator import TrainingSimulator
from benchmark_utils_example import draw_samples


def build_hybrid_plan(buffer_infos, tree, encoder_costfn, backbone_costfn, num_microbatches):
    """The Fig. 9 strategy, written directly against the DGraph primitives.

    ``buffer_infos`` is the buffered rows (:class:`SampleColumns`); each cost
    function maps the selected rows to per-row (latency, memory) arrays.
    """
    # Backbone: distribute along DP, balance fused-sequence cost, broadcast TP.
    dgraph = DGraph.from_buffer_infos(buffer_infos, metas_token, module="backbone")
    dgraph.init(tree)
    dgraph.distribute(axis="DP")
    dgraph.cost(backbone_costfn)
    dgraph.balance(num_microbatches=num_microbatches)
    dgraph.broadcast_at("TP")
    plan = dgraph.plan()

    # Encoder: the image view of the same buffer, balanced world-wide.
    dgraph_encoder = DGraph.from_buffer_infos(buffer_infos, metas_image, module="encoder")
    dgraph_encoder.init(tree)
    dgraph_encoder.distribute(axis="WORLD")
    dgraph_encoder.cost(encoder_costfn)
    dgraph_encoder.balance(num_microbatches=num_microbatches)
    plan.subplan["encoder"] = dgraph_encoder.plan()
    return plan


def main() -> None:
    mesh = DeviceMesh(pp=2, dp=4, cp=1, tp=2, gpus_per_node=16)
    tree = ClientPlaceTree(mesh)
    model = VLMConfig(encoder=get_model("ViT-2B"), backbone=get_model("Llama-12B"))
    simulator = TrainingSimulator(model, mesh)

    filesystem = SimulatedFileSystem()
    catalog = build_source_catalog(
        navit_like_spec(num_sources=12, samples_per_source=64, seed=1), filesystem
    )
    encoder_cost = EncoderCostModel(model.encoder)
    backbone_cost = BackboneCostModel(model.backbone)
    num_microbatches = 4

    print(f"mesh: {mesh.describe()}")
    print(f"{'context':>8} {'baseline (s)':>14} {'hybrid (s)':>12} {'speedup':>8}")
    for context_length in (4096, 8192, 16384):
        samples = draw_samples(catalog, filesystem, 16 * mesh.size("DP"), context_length)
        buffer_infos = SampleColumns.from_samples(samples)

        hybrid_plan = build_hybrid_plan(
            buffer_infos, ClientPlaceTree(mesh), encoder_cost, backbone_cost, num_microbatches
        )
        hybrid_result = simulator.simulate_iteration(
            hybrid_plan.module.token_bins(),
            hybrid_plan.subplan["encoder"].module.token_bins(),
        )

        baseline = DGraph.from_buffer_infos(buffer_infos, metas_token).init(ClientPlaceTree(mesh))
        baseline.distribute(axis="DP")
        baseline._num_microbatches = num_microbatches
        baseline_plan = baseline.plan()
        baseline_result = simulator.simulate_iteration(
            baseline_plan.module.token_bins()
        )

        speedup = baseline_result.iteration_time_s / hybrid_result.iteration_time_s
        print(
            f"{context_length:>8} {baseline_result.iteration_time_s:>14.2f} "
            f"{hybrid_result.iteration_time_s:>12.2f} {speedup:>7.2f}x"
        )


if __name__ == "__main__":
    main()
