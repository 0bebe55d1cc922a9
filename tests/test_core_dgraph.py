"""Unit tests for the DGraph declarative orchestration abstraction."""

from __future__ import annotations

import pytest

from repro.core.dgraph import DGraph, metas_image, metas_token
from repro.core.place_tree import ClientPlaceTree
from repro.data.mixture import MixtureSchedule
from repro.errors import OrchestrationError
from repro.parallelism.mesh import DeviceMesh


@pytest.fixture()
def buffer_infos(sample_factory):
    """Two sources: one text-only, one image-text."""
    text = [sample_factory(i, text_tokens=64 + i, source="text_src") for i in range(16)]
    image = [
        sample_factory(100 + i, text_tokens=32, image_tokens=256 * (i + 1), source="img_src")
        for i in range(16)
    ]
    return {"text_src": text, "img_src": image}


@pytest.fixture()
def tree(vlm_mesh):
    return ClientPlaceTree(vlm_mesh)


class TestConstruction:
    def test_from_buffer_infos_counts(self, buffer_infos):
        dgraph = DGraph.from_buffer_infos(buffer_infos, metas_token)
        assert len(dgraph.selected_samples) == 32
        assert len(dgraph.nodes) == 32

    def test_image_view_filters_text(self, buffer_infos):
        dgraph = DGraph.from_buffer_infos(buffer_infos, metas_image)
        assert len(dgraph.selected_samples) == 16
        assert all(s.image_tokens > 0 for s in dgraph.selected_samples)

    def test_text_only_view(self, buffer_infos):
        """A selector without a column mask is evaluated per record."""
        dgraph = DGraph.from_buffer_infos(buffer_infos, lambda m: m if m.image_tokens == 0 else None)
        assert len(dgraph.selected_samples) == 16
        assert all(s.image_tokens == 0 for s in dgraph.selected_samples)

    def test_flat_list_accepted(self, buffer_infos):
        flat = [s for samples in buffer_infos.values() for s in samples]
        dgraph = DGraph.from_buffer_infos(flat)
        assert len(dgraph.selected_samples) == 32

    def test_primitives_require_init(self, buffer_infos):
        dgraph = DGraph.from_buffer_infos(buffer_infos)
        with pytest.raises(OrchestrationError):
            dgraph.distribute("DP")


class TestPrimitives:
    def test_distribute_bucket_counts(self, buffer_infos, tree):
        dgraph = DGraph.from_buffer_infos(buffer_infos).init(tree)
        assert dgraph.distribute("DP").num_buckets == 2
        assert dgraph.distribute("CP").num_buckets == 4
        assert dgraph.distribute("WORLD").num_buckets == 16

    def test_distribute_group_size(self, buffer_infos, tree):
        dgraph = DGraph.from_buffer_infos(buffer_infos).init(tree)
        assert dgraph.distribute("WORLD", group_size=4).num_buckets == 4

    def test_distribute_invalid_axis(self, buffer_infos, tree):
        dgraph = DGraph.from_buffer_infos(buffer_infos).init(tree)
        with pytest.raises(OrchestrationError):
            dgraph.distribute("EP")

    def test_distribute_invalid_group_size(self, buffer_infos, tree):
        dgraph = DGraph.from_buffer_infos(buffer_infos).init(tree)
        with pytest.raises(OrchestrationError):
            dgraph.distribute("DP", group_size=0)

    def test_mix_respects_weights(self, buffer_infos, tree):
        schedule = MixtureSchedule.static({"text_src": 0.999, "img_src": 0.001})
        dgraph = DGraph.from_buffer_infos(buffer_infos).init(tree).with_step(0)
        dgraph.mix(schedule, sample_count=16)
        sources = [s.source for s in dgraph.selected_samples]
        assert sources.count("text_src") >= 14

    def test_mix_zero_weight_everywhere_rejected(self, buffer_infos, tree):
        schedule = MixtureSchedule.static({"other": 1.0})
        dgraph = DGraph.from_buffer_infos(buffer_infos).init(tree)
        with pytest.raises(OrchestrationError):
            dgraph.mix(schedule)

    def test_balance_requires_distribute(self, buffer_infos, tree):
        dgraph = DGraph.from_buffer_infos(buffer_infos).init(tree)
        with pytest.raises(OrchestrationError):
            dgraph.balance()

    def test_balance_reduces_imbalance(self, buffer_infos, tree):
        costfn = lambda m: float(m.total_tokens) ** 2
        balanced = (
            DGraph.from_buffer_infos(buffer_infos).init(tree).distribute("DP").cost(costfn)
        )
        balanced.balance(num_microbatches=4)
        plan_balanced = balanced.plan()

        unbalanced = DGraph.from_buffer_infos(buffer_infos).init(tree).distribute("DP")
        unbalanced._num_microbatches = 4
        plan_unbalanced = unbalanced.plan()

        def spread(plan):
            costs = [sum(float(s.total_tokens) ** 2 for s in a.samples) for a in plan.module.assignments]
            return max(costs) / max(1e-9, min(costs))

        assert spread(plan_balanced) < spread(plan_unbalanced)

    def test_balance_default_costfn_is_token_count(self, buffer_infos, tree):
        dgraph = DGraph.from_buffer_infos(buffer_infos).init(tree).distribute("DP")
        dgraph.balance(num_microbatches=2)
        plan = dgraph.plan()
        assert plan.module.balance_method == "greedy"

    def test_broadcast_at_excludes_clients(self, buffer_infos, tree):
        dgraph = DGraph.from_buffer_infos(buffer_infos).init(tree)
        dgraph.distribute("DP").balance(num_microbatches=2)
        dgraph.broadcast_at("TP")
        plan = dgraph.plan()
        assert len(plan.fetching_ranks) == tree.mesh.world_size // 2

    def test_invalid_microbatch_count(self, buffer_infos, tree):
        dgraph = DGraph.from_buffer_infos(buffer_infos).init(tree).distribute("DP")
        with pytest.raises(OrchestrationError):
            dgraph.balance(num_microbatches=0)


class TestPlan:
    def test_plan_covers_all_selected_samples(self, buffer_infos, tree):
        dgraph = DGraph.from_buffer_infos(buffer_infos).init(tree)
        dgraph.distribute("DP").balance(num_microbatches=4)
        plan = dgraph.plan()
        assert len({i for a in plan.module.assignments for i in a.sample_ids()}) == 32
        assert sum(len(ids) for ids in plan.source_demands.values()) == 32

    def test_plan_without_balance_uses_arrival_order(self, buffer_infos, tree):
        dgraph = DGraph.from_buffer_infos(buffer_infos).init(tree)
        plan = dgraph.plan()
        assert plan.module.balance_method == "none"
        assert plan.module.num_buckets == 2

    def test_plan_api_costs_recorded(self, buffer_infos, tree):
        dgraph = DGraph.from_buffer_infos(buffer_infos).init(tree).distribute("DP")
        dgraph.cost(lambda m: float(m.total_tokens))
        dgraph.balance(num_microbatches=2)
        plan = dgraph.plan()
        assert plan.api_costs["cost"] > 0
        assert plan.api_costs["balance"] > 0

    def test_summary_buffer_per_source(self, buffer_infos, tree):
        dgraph = DGraph.from_buffer_infos(buffer_infos).init(tree)
        summary = dgraph.summary_buffer()
        assert summary["text_src"]["count"] == 16
        assert summary["img_src"]["image_tokens"] > 0

    def test_lineage_tracks_states(self, buffer_infos, tree):
        dgraph = DGraph.from_buffer_infos(buffer_infos).init(tree)
        dgraph.distribute("DP").balance(num_microbatches=2)
        sample_id = dgraph.selected_samples[0].sample_id
        assert dgraph.lineage(sample_id) == ["buffered", "assigned"]

    def test_mix_then_balance_lineage(self, buffer_infos, tree):
        schedule = MixtureSchedule.uniform(["text_src", "img_src"])
        dgraph = DGraph.from_buffer_infos(buffer_infos).init(tree).with_step(1)
        dgraph.mix(schedule).distribute("DP").balance(num_microbatches=2)
        sample_id = dgraph.selected_samples[0].sample_id
        assert dgraph.lineage(sample_id) == ["buffered", "sampled", "assigned"]
        sampled = [node for node in dgraph.nodes if node.state == "sampled"]
        assert len(sampled) == len(dgraph.selected_samples)

    def test_balance_nodes_record_bucket_and_microbatch(self, buffer_infos, tree):
        dgraph = DGraph.from_buffer_infos(buffer_infos).init(tree)
        dgraph.distribute("DP").balance(num_microbatches=2)
        assigned = [node for node in dgraph.nodes if node.state == "assigned"]
        assert len(assigned) == len(dgraph.selected_samples)
        assert {node.detail["microbatch"] for node in assigned} == {0, 1}
        assert all(0 <= node.detail["bucket"] < dgraph.num_buckets for node in assigned)

    def test_balance_assigns_every_selected_sample_once(self, buffer_infos, tree):
        dgraph = DGraph.from_buffer_infos(buffer_infos).init(tree)
        plan = dgraph.distribute("DP").balance(num_microbatches=4).plan()
        assigned = [
            sample_id
            for assignment in plan.module.assignments
            for sample_id in assignment.sample_ids()
        ]
        assert sorted(assigned) == sorted(s.sample_id for s in dgraph.selected_samples)

    @pytest.mark.parametrize("balanced", [True, False])
    def test_estimated_cost_sums_the_bin_and_an_empty_bin_costs_int_zero(
        self, sample_factory, tree, balanced
    ):
        samples = [sample_factory(i, text_tokens=tokens) for i, tokens in enumerate([9, 5, 3])]
        dgraph = DGraph.from_buffer_infos({"src": samples}).init(tree).distribute("DP")
        dgraph.cost(lambda metadata: float(metadata.total_tokens))
        if balanced:
            dgraph.balance(num_microbatches=4)
        costs = {sample.sample_id: float(sample.total_tokens) for sample in samples}
        for assignment in dgraph.plan().module.assignments:
            expected = sum([costs[sample_id] for sample_id in assignment.sample_ids()])
            assert assignment.estimated_cost == expected
            assert type(assignment.estimated_cost) is type(expected)

    def test_describe_names_the_balancer_once_balanced(self, buffer_infos, tree):
        dgraph = DGraph.from_buffer_infos(buffer_infos).init(tree).distribute("DP")
        assert "balance='none'" in dgraph.describe()
        dgraph.balance(num_microbatches=2)
        assert "balance='greedy'" in dgraph.describe()

    def test_balance_api_cost_accumulates_across_calls(self, buffer_infos, tree):
        dgraph = DGraph.from_buffer_infos(buffer_infos).init(tree).distribute("DP")
        once = dgraph.balance(num_microbatches=2).api_costs["balance"]
        assert dgraph.balance(num_microbatches=2).api_costs["balance"] == pytest.approx(2 * once)

    def test_a_later_balance_replaces_the_earlier_assignment(self, buffer_infos, tree):
        dgraph = DGraph.from_buffer_infos(buffer_infos).init(tree).distribute("DP")
        dgraph.balance(num_microbatches=2).balance(num_microbatches=4)
        plan = dgraph.plan()
        assert plan.module.num_microbatches == 4
        assert {a.microbatch_index for a in plan.module.assignments} == {0, 1, 2, 3}

    def test_describe(self, buffer_infos, tree):
        dgraph = DGraph.from_buffer_infos(buffer_infos).init(tree).distribute("DP")
        assert "buckets=2" in dgraph.describe()
