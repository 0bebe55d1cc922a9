"""Unit tests for loading/scaling plan datatypes."""

from __future__ import annotations

import pytest

from repro.core.plans import (
    LoaderScalingDirective,
    LoadingPlan,
    ModulePlan,
    ScalingPlan,
)
from repro.errors import PlanError
from conftest import assignment_of


def make_module_plan(sample_factory, buckets=2, microbatches=2):
    plan = ModulePlan(module="backbone", axis="DP", num_buckets=buckets, num_microbatches=microbatches)
    sid = 0
    for bucket in range(buckets):
        for mb in range(microbatches):
            samples = (sample_factory(sid), sample_factory(sid + 1))
            sid += 2
            plan.assignments.append(assignment_of(bucket, mb, samples, float(sid)))
    return plan


class TestModulePlan:
    def test_bucket_assignments_sorted(self, sample_factory):
        plan = make_module_plan(sample_factory)
        assignments = plan.bucket_assignments(1)
        assert [a.microbatch_index for a in assignments] == [0, 1]
        assert all(a.bucket_index == 1 for a in assignments)

    def test_bucket_costs(self, sample_factory):
        """Each assignment keeps the cost the balancer packed it by."""
        plan = make_module_plan(sample_factory)
        costs = [a.estimated_cost for a in plan.assignments]
        assert costs == [2.0, 4.0, 6.0, 8.0]

    def test_all_sample_ids(self, sample_factory):
        plan = make_module_plan(sample_factory)
        assert len({i for a in plan.assignments for i in a.sample_ids()}) == 8

    def test_validate_rejects_out_of_range_bucket(self, sample_factory):
        plan = make_module_plan(sample_factory)
        plan.assignments.append(
            assignment_of(5, 0, [sample_factory(99)])
        )
        with pytest.raises(PlanError):
            plan.validate()

    def test_validate_rejects_duplicate_assignment(self, sample_factory):
        plan = make_module_plan(sample_factory)
        plan.assignments.append(plan.assignments[0])
        with pytest.raises(PlanError):
            plan.validate()

    def test_bucket_samples_pads_each_bucket_to_num_microbatches(self, sample_factory):
        plan = ModulePlan(module="backbone", axis="DP", num_buckets=2, num_microbatches=3)
        plan.assignments.append(
            assignment_of(1, 0, [sample_factory(4)])
        )
        plan.assignments.append(
            assignment_of(0, 1, [sample_factory(2)])
        )
        plan.assignments.append(
            assignment_of(0, 0, [sample_factory(1)])
        )
        buckets = plan.bucket_samples()
        assert [[[s.sample_id for s in mb] for mb in bucket] for bucket in buckets] == [
            [[1], [2], []],
            [[4], [], []],
        ]

    def test_assignment_helpers(self, sample_factory):
        assignment = assignment_of(
            0, 0, [sample_factory(1, text_tokens=10), sample_factory(2, text_tokens=20)]
        )
        assert assignment.total_tokens() == 30
        assert assignment.sample_ids() == [1, 2]


class TestLoadingPlan:
    def test_validate_requires_demands_to_cover_assignments(self, sample_factory):
        module = make_module_plan(sample_factory)
        plan = LoadingPlan(step=0, modules={"backbone": module})
        with pytest.raises(PlanError):
            plan.validate()
        plan.source_demands = {"src": sorted({i for a in module.assignments for i in a.sample_ids()})}
        plan.validate()

    def test_module_lookup(self, sample_factory):
        plan = LoadingPlan(step=0, modules={"backbone": make_module_plan(sample_factory)})
        assert plan.module("backbone").module == "backbone"
        with pytest.raises(PlanError):
            plan.module("encoder")

    def test_total_samples_and_metadata_bytes(self, sample_factory):
        module = make_module_plan(sample_factory)
        plan = LoadingPlan(
            step=0,
            modules={"backbone": module},
            source_demands={"src": sorted({i for a in module.assignments for i in a.sample_ids()})},
        )
        assert plan.total_samples() == 8
        assert plan.metadata_bytes() > 1024


class TestScalingPlan:
    def test_totals(self):
        plan = ScalingPlan(
            step=3,
            directives=[
                LoaderScalingDirective("a", target_actors=2, target_workers_per_actor=4),
                LoaderScalingDirective("b", target_actors=1, target_workers_per_actor=2),
            ],
        )
        assert not plan.is_empty()
        assert plan.total_workers() == 10

    def test_empty_plan(self):
        assert ScalingPlan(step=0).is_empty()
