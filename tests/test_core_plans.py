"""Unit tests for loading/scaling plan datatypes."""

from __future__ import annotations

import hashlib
from dataclasses import replace
from unittest import mock

import pytest

from repro import MegaScaleData, TrainingJobSpec
from repro.core.dgraph import DGraph
from repro.core.plans import LoaderScalingDirective, LoadingPlan, ScalingPlan
from repro.errors import PlanError
from conftest import module_plan_of, plan_bins


def make_module_plan(sample_factory, buckets=2, microbatches=2):
    samples = iter(sample_factory(sid) for sid in range(2 * buckets * microbatches))
    return module_plan_of(
        [[[next(samples), next(samples)] for _ in range(microbatches)] for _ in range(buckets)],
        costs=[float(2 * k + 2) for k in range(buckets * microbatches)],
    )


class TestModulePlan:
    def test_bins_are_bucket_major(self, sample_factory):
        plan = make_module_plan(sample_factory)
        assert [(bucket, mb) for bucket, mb, _, _ in plan_bins(plan)] == [
            (0, 0), (0, 1), (1, 0), (1, 1)
        ]
        assert plan.bucket_offsets(1) == [4, 6, 8]
        assert plan.rows.sample_ids[4:8].tolist() == [4, 5, 6, 7]

    def test_bucket_costs(self, sample_factory):
        """Each bin keeps the cost the balancer packed it by."""
        plan = make_module_plan(sample_factory)
        assert plan.estimated_costs == [2.0, 4.0, 6.0, 8.0]

    def test_bucket_offsets_reject_an_out_of_range_bucket(self, sample_factory):
        plan = make_module_plan(sample_factory)
        for bucket in (-1, 2):
            with pytest.raises(PlanError, match=f"bucket {bucket} out of range"):
                plan.bucket_offsets(bucket)

    @pytest.mark.parametrize(
        "offsets", [[0, 2, 4, 6], [0, 2, 4, 6, 7], [1, 2, 4, 6, 8], [0, 4, 2, 6, 8]]
    )
    def test_validate_rejects_offsets_that_do_not_tile_the_rows(self, sample_factory, offsets):
        plan = make_module_plan(sample_factory)
        plan.offsets = offsets
        with pytest.raises(PlanError, match="do not cut"):
            plan.validate()

    def test_validate_rejects_a_cost_list_of_another_length(self, sample_factory):
        plan = make_module_plan(sample_factory)
        plan.estimated_costs = plan.estimated_costs[:-1]
        with pytest.raises(PlanError, match="do not cut"):
            plan.validate()

    @pytest.mark.parametrize("bucket, mb", [(0, 0), (0, 1), (1, 1)])
    def test_validate_rejects_a_repeated_id_within_one_bin(self, sample_factory, bucket, mb):
        buckets = [[[sample_factory(10 * b + m)] for m in range(2)] for b in range(2)]
        buckets[bucket][mb] = [sample_factory(7), sample_factory(3), sample_factory(7)]
        with pytest.raises(PlanError, match=rf"assigned twice to bin \({bucket}, {mb}\)"):
            module_plan_of(buckets).validate()

    def test_validate_accepts_one_id_in_two_bins_of_a_module(self, sample_factory):
        """A sample may sit in two bins (of one bucket or of two)."""
        twice = sample_factory(7)
        module_plan_of([[[twice], [twice]], [[twice, sample_factory(8)], []]]).validate()

    def test_validate_accepts_empty_bins(self, sample_factory):
        module_plan_of([[[], []], [[sample_factory(1)], []]]).validate()
        module_plan_of([[[], []]]).validate()

    def test_token_bins_follow_the_offsets(self, sample_factory):
        plan = module_plan_of([
            [[sample_factory(1, text_tokens=10)], [sample_factory(2, image_tokens=5)], []],
            [[sample_factory(4, text_tokens=30)], [], []],
        ])
        bins = plan.token_bins()
        assert (bins.num_buckets, bins.num_microbatches) == (2, 3)
        assert bins.total_tokens.tolist() == [10, 64 + 5, 30]
        assert bins.offsets == [0, 1, 2, 2, 3, 3, 3]
        assert bins.grid(bins.total_tokens).tolist() == [[10, 64 + 5, 0], [30, 0, 0]]
        assert bins.grid(bins.image_tokens).tolist() == [[0, 5, 0], [0, 0, 0]]


#: sha256 over every plan ``DGraph.plan`` finalizes in the first 5 steps of
#: each cell: per module and bin, ``repr((module, bucket, microbatch, sample
#: ids, type name of estimated_cost, estimated_cost))``.  Recorded when each
#: bin was an object of its own, before plans became one row selection plus
#: bin offsets.
PER_BIN_DIGESTS = {
    ("vlm", 0, 0): "c532c831d83e10ad1f651bebe9e3a7fd705f5d157d89ba835beda4670cb4bf5c",
    ("vlm", 0, 1): "b4e74511936303fa2cf186d071feb170dc0ab113dbac4b3bc4acde7634be42ca",
    ("vlm", 0, 2): "e16826901b623299b2758d22eaef6374f2e0acc5f933321d77ef35612e9ab454",
    ("vlm", 2, 0): "1efd8d8e460e2696362bf9e127049cd9ad98a6b0ff6ba7bf55aae44ef55731cb",
    ("vlm", 2, 1): "03d6e32b3431e0d9e9437f23badcdca2e5936e9e24c59550bd559f4460c041aa",
    ("vlm", 2, 2): "8ad5a12bd6f416cbd1ad25bd4f8a32cbcfc066099607de5c88826b847da855ca",
    ("text", 0, 0): "c564ce63764d8df0a0b3ca48bc7d77783b806e2de944206d780a97006c1c53bb",
    ("text", 0, 1): "14cbd8dfa9668e5caad434d74380c00bd1976061e4578805e615e60ffadb8458",
    ("text", 0, 2): "4d19eff2ac75bc4821d194342967aab1c1e68e909fec61d2d4d2bf8b40e25d77",
    ("text", 2, 0): "6241e31fba3e0924f36113b8cb40ada48c0e0b4129d9579062fd8359d69b1f26",
    ("text", 2, 1): "009d70e8b12c031ccfb5b1685b877b48cd4c2a3edd289ede00fdd75a20e3080d",
    ("text", 2, 2): "b05123c1172ece4bcb3986261bfc472b6a0a9a55321ef0de02e7919714eb0225",
}

JOBS = {"vlm": TrainingJobSpec.vlm_example, "text": TrainingJobSpec.text_example}


@pytest.mark.parametrize("job_name, depth, seed", sorted(PER_BIN_DIGESTS))
def test_plans_match_the_per_bin_recording(job_name, depth, seed):
    digest = hashlib.sha256()
    finalize = DGraph.plan

    def recording(dgraph):
        plan = finalize(dgraph)
        for module in [plan.module, *(sub.module for sub in plan.subplan.values())]:
            for bucket, mb, ids, cost in plan_bins(module):
                entry = (module.module, bucket, mb, ids, type(cost).__name__, cost)
                digest.update(repr(entry).encode())
        return plan

    with mock.patch.object(DGraph, "plan", recording):
        system = MegaScaleData.deploy(replace(JOBS[job_name](), prefetch_depth=depth, seed=seed))
        try:
            for _ in range(5):
                system.run_step()
        finally:
            system.shutdown()
    assert digest.hexdigest() == PER_BIN_DIGESTS[job_name, depth, seed]


class TestLoadingPlan:
    def test_validate_requires_demands_to_cover_assignments(self, sample_factory):
        module = make_module_plan(sample_factory)
        plan = LoadingPlan(step=0, modules={"backbone": module})
        with pytest.raises(PlanError):
            plan.validate()
        plan.source_demands = {"src": sorted(module.rows.sample_ids.tolist())}
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
            source_demands={"src": sorted(module.rows.sample_ids.tolist())},
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
