"""Unit tests for the DGraph declarative orchestration abstraction."""

from __future__ import annotations

import pytest

from repro.core.columns import SampleColumns
from repro.core.dgraph import DGraph, metas_image, metas_token
from repro.core.place_tree import ClientPlaceTree
from repro.data.mixture import MixtureSchedule
from repro.errors import OrchestrationError
from repro.parallelism.mesh import DeviceMesh
from conftest import bucket_samples, gathered_columns, make_sample, plan_bins


@pytest.fixture()
def buffer_infos(sample_factory):
    """Two sources: one text-only, one image-text."""
    text = [sample_factory(i, text_tokens=64 + i, source="text_src") for i in range(16)]
    image = [
        sample_factory(100 + i, text_tokens=32, image_tokens=256 * (i + 1), source="img_src")
        for i in range(16)
    ]
    return gathered_columns({"text_src": text, "img_src": image})


def selected_rows(dgraph, tree):
    """The rows a graph selected, as its plan lists them (bin order)."""
    return dgraph.init(tree).plan().module.rows


@pytest.fixture()
def tree(vlm_mesh):
    return ClientPlaceTree(vlm_mesh)


class TestConstruction:
    def test_from_buffer_infos_counts(self, buffer_infos, tree):
        dgraph = DGraph.from_buffer_infos(buffer_infos, metas_token)
        assert len(dgraph.nodes) == 32
        assert selected_rows(dgraph, tree) == buffer_infos

    def test_image_view_filters_text(self, buffer_infos, tree):
        rows = selected_rows(DGraph.from_buffer_infos(buffer_infos, metas_image), tree)
        assert len(rows) == 16
        assert (rows.image_tokens > 0).all()

    def test_text_only_view(self, buffer_infos, tree):
        """Any row mask over the columns selects a view."""
        dgraph = DGraph.from_buffer_infos(buffer_infos, lambda rows: rows.image_tokens == 0)
        rows = selected_rows(dgraph, tree)
        assert len(rows) == 16
        assert (rows.image_tokens == 0).all()

    def test_rows_not_grouped_by_source_accepted(self, buffer_infos, tree):
        flat = SampleColumns.from_samples(
            [make_sample(i, source="ab"[i % 2]) for i in range(8)]
        )
        assert flat.runs is None
        rows = selected_rows(DGraph.from_buffer_infos(flat), tree)
        assert sorted(rows.sample_ids.tolist()) == list(range(8))

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
        assert len(dgraph.plan().source_demands["text_src"]) >= 14

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
        costfn = lambda rows: rows.total_tokens.astype(float) ** 2
        balanced = (
            DGraph.from_buffer_infos(buffer_infos).init(tree).distribute("DP").cost(costfn)
        )
        balanced.balance(num_microbatches=4)
        plan_balanced = balanced.plan()

        unbalanced = DGraph.from_buffer_infos(buffer_infos).init(tree).distribute("DP")
        unbalanced._num_microbatches = 4
        plan_unbalanced = unbalanced.plan()

        def spread(plan):
            costs = [
                sum(costfn(bin_).tolist())
                for bucket in bucket_samples(plan.module)
                for bin_ in bucket
            ]
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
        assert len(set(plan.module.rows.sample_ids.tolist())) == 32
        assert sum(len(ids) for ids in plan.source_demands.values()) == 32

    def test_plan_without_balance_uses_arrival_order(self, buffer_infos, tree):
        dgraph = DGraph.from_buffer_infos(buffer_infos).init(tree)
        plan = dgraph.plan()
        assert plan.module.balance_method == "none"
        assert plan.module.num_buckets == 2

    def test_plan_api_costs_recorded(self, buffer_infos, tree):
        dgraph = DGraph.from_buffer_infos(buffer_infos).init(tree).distribute("DP")
        dgraph.cost(lambda rows: rows.total_tokens.astype(float))
        dgraph.balance(num_microbatches=2)
        plan = dgraph.plan()
        assert plan.api_costs["cost"] > 0
        assert plan.api_costs["balance"] > 0

    def test_lineage_tracks_states(self, buffer_infos, tree):
        dgraph = DGraph.from_buffer_infos(buffer_infos).init(tree)
        dgraph.distribute("DP").balance(num_microbatches=2)
        sample_id = selected_rows(dgraph, tree).sample_ids.tolist()[0]
        assert dgraph.lineage(sample_id) == ["buffered", "assigned"]

    def test_mix_then_balance_lineage(self, buffer_infos, tree):
        schedule = MixtureSchedule.uniform(["text_src", "img_src"])
        dgraph = DGraph.from_buffer_infos(buffer_infos).init(tree).with_step(1)
        dgraph.mix(schedule).distribute("DP").balance(num_microbatches=2)
        rows = selected_rows(dgraph, tree)
        assert dgraph.lineage(rows.sample_ids.tolist()[0]) == ["buffered", "sampled", "assigned"]
        sampled = [node for node in dgraph.nodes if node.state == "sampled"]
        assert len(sampled) == len(rows)

    def test_balance_nodes_record_bucket_and_microbatch(self, buffer_infos, tree):
        dgraph = DGraph.from_buffer_infos(buffer_infos).init(tree)
        dgraph.distribute("DP").balance(num_microbatches=2)
        assigned = [node for node in dgraph.nodes if node.state == "assigned"]
        assert len(assigned) == len(buffer_infos)
        assert {node.detail["microbatch"] for node in assigned} == {0, 1}
        assert all(0 <= node.detail["bucket"] < dgraph.num_buckets for node in assigned)

    def test_balance_assigns_every_selected_sample_once(self, buffer_infos, tree):
        dgraph = DGraph.from_buffer_infos(buffer_infos).init(tree)
        plan = dgraph.distribute("DP").balance(num_microbatches=4).plan()
        assigned = plan.module.rows.sample_ids.tolist()
        assert sorted(assigned) == sorted(buffer_infos.sample_ids.tolist())

    @pytest.mark.parametrize("balanced", [True, False])
    def test_estimated_cost_sums_the_bin_and_an_empty_bin_costs_int_zero(
        self, sample_factory, tree, balanced
    ):
        samples = [sample_factory(i, text_tokens=tokens) for i, tokens in enumerate([9, 5, 3])]
        rows = SampleColumns.from_samples(samples)
        dgraph = DGraph.from_buffer_infos(rows).init(tree).distribute("DP")
        dgraph.cost(lambda rows: rows.total_tokens.astype(float))
        if balanced:
            dgraph.balance(num_microbatches=4)
        costs = {sample.sample_id: float(sample.total_tokens) for sample in samples}
        for _, _, ids, estimated_cost in plan_bins(dgraph.plan().module):
            expected = sum([costs[sample_id] for sample_id in ids])
            assert estimated_cost == expected
            assert type(estimated_cost) is type(expected)

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
        assert {mb for _, mb, _, _ in plan_bins(plan.module)} == {0, 1, 2, 3}

    def test_describe(self, buffer_infos, tree):
        dgraph = DGraph.from_buffer_infos(buffer_infos).init(tree).distribute("DP")
        assert "buckets=2" in dgraph.describe()
