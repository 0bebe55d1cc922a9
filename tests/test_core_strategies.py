"""Unit tests for built-in orchestration strategies."""

from __future__ import annotations

import pytest

from repro.core.place_tree import ClientPlaceTree
from repro.core.strategies import (
    BUILTIN_STRATEGIES,
    StrategyConfig,
    backbone_balance_strategy,
    hybrid_vlm_strategy,
    make_strategy,
    vanilla_strategy,
)
from repro.data.mixture import MixtureSchedule
from conftest import bucket_samples, gathered_columns


@pytest.fixture()
def buffer_infos(sample_factory):
    mixed = [
        sample_factory(i, text_tokens=32 * (1 + i % 7), image_tokens=256 * (i % 5), source="mixed")
        for i in range(48)
    ]
    text = [sample_factory(100 + i, text_tokens=64 + 32 * i, source="text") for i in range(16)]
    return gathered_columns({"mixed": mixed, "text": text})


@pytest.fixture()
def tree(vlm_mesh):
    return ClientPlaceTree(vlm_mesh)


def bucket_cost_spread(module_plan, costfn):
    costs = [
        sum(sum(costfn(bin_).tolist()) for bin_ in bucket) for bucket in bucket_samples(module_plan)
    ]
    return max(costs) / max(1e-9, min(costs))


class TestVanilla:
    def test_produces_plan_without_balancing(self, buffer_infos, tree):
        strategy = vanilla_strategy(StrategyConfig(num_microbatches=4))
        plan = strategy(buffer_infos, tree, step=0, seed=0)
        assert plan.module.balance_method == "none"
        assert plan.module.num_buckets == 2
        assert plan.subplan == {}

    def test_broadcast_excludes_tp_clients(self, buffer_infos, tree):
        strategy = vanilla_strategy(StrategyConfig())
        plan = strategy(buffer_infos, tree, 0, 0)
        assert len(plan.fetching_ranks) == tree.mesh.world_size // 2


class TestBackboneBalance:
    def test_balances_backbone_costs(self, buffer_infos, tree):
        costfn = lambda rows: rows.total_tokens.astype(float) ** 2
        balanced_plan = backbone_balance_strategy(
            StrategyConfig(num_microbatches=4)
        )(buffer_infos, tree, 0, 0)
        vanilla_plan = vanilla_strategy(StrategyConfig(num_microbatches=4))(buffer_infos, tree, 0, 0)
        assert bucket_cost_spread(balanced_plan.module, costfn) <= bucket_cost_spread(
            vanilla_plan.module, costfn
        )
        assert balanced_plan.module.balance_method == "greedy"

    def test_mixture_applied_when_configured(self, buffer_infos, tree):
        mixture = MixtureSchedule.static({"mixed": 0.999, "text": 0.001})
        strategy = backbone_balance_strategy(StrategyConfig(mixture=mixture, num_microbatches=2))
        plan = strategy(buffer_infos, tree, 0, 0)
        assert plan.mixture_weights["mixed"] > 0.9
        demanded = plan.source_demands
        assert len(demanded.get("mixed", [])) >= len(demanded.get("text", []))


class TestHybrid:
    def test_encoder_subplan_present(self, buffer_infos, tree):
        plan = hybrid_vlm_strategy(StrategyConfig(num_microbatches=4))(buffer_infos, tree, 0, 0)
        assert "encoder" in plan.subplan
        encoder_plan = plan.subplan["encoder"].module
        assert encoder_plan.axis == "WORLD"
        assert encoder_plan.num_buckets == tree.mesh.world_size

    def test_encoder_plan_only_contains_image_samples(self, buffer_infos, tree):
        plan = hybrid_vlm_strategy(StrategyConfig(num_microbatches=2))(buffer_infos, tree, 0, 0)
        assert (plan.subplan["encoder"].module.rows.image_tokens > 0).all()

    def test_encoder_samples_subset_of_backbone(self, buffer_infos, tree):
        plan = hybrid_vlm_strategy(StrategyConfig(num_microbatches=2))(buffer_infos, tree, 0, 0)
        backbone_ids = set(plan.module.rows.sample_ids.tolist())
        encoder_ids = set(plan.subplan["encoder"].module.rows.sample_ids.tolist())
        assert encoder_ids <= backbone_ids

    def test_all_source_demands_merges_subplans(self, buffer_infos, tree):
        plan = hybrid_vlm_strategy(StrategyConfig(num_microbatches=2))(buffer_infos, tree, 0, 0)
        merged = plan.all_source_demands()
        assert set(merged) == {"mixed", "text"}

    def test_hybrid_balances_image_costs_across_world(self, buffer_infos, tree):
        imgcost = lambda rows: rows.image_tokens.astype(float) ** 2
        plan = hybrid_vlm_strategy(StrategyConfig(num_microbatches=2))(buffer_infos, tree, 0, 0)
        encoder_spread = bucket_cost_spread(plan.subplan["encoder"].module, imgcost)
        vanilla = vanilla_strategy(StrategyConfig(num_microbatches=2))(buffer_infos, tree, 0, 0)
        vanilla_spread = bucket_cost_spread(vanilla.module, imgcost)
        assert encoder_spread <= vanilla_spread * 2


class TestRegistry:
    def test_all_builtins_instantiate(self, buffer_infos, tree):
        for name in BUILTIN_STRATEGIES:
            plan = make_strategy(name, StrategyConfig(num_microbatches=2))(buffer_infos, tree, 0, 0)
            assert plan.module.num_microbatches == 2

    def test_unknown_strategy(self):
        with pytest.raises(KeyError):
            make_strategy("magic")
