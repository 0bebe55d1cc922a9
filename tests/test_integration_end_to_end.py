"""Integration tests: full deploy + multi-step training workflows."""

from __future__ import annotations

from itertools import accumulate

import pytest

from repro.core.framework import MegaScaleData, TrainingJobSpec
from repro.data.mixture import MixturePhase, MixtureSchedule
from repro.training.flops import TokenBins


class TestVlmEndToEnd:
    @pytest.fixture(scope="class")
    def system(self):
        job = TrainingJobSpec(
            pp=1, dp=2, cp=2, tp=2, backbone="Llama-12B", encoder="ViT-1B",
            samples_per_dp_step=8, num_microbatches=2, max_sequence_length=8192,
            num_sources=5, samples_per_source=96, strategy="hybrid", seed=3,
        )
        return MegaScaleData.deploy(job)

    def test_multi_step_run_is_stable(self, system):
        results = [system.run_step(simulate=True) for _ in range(3)]
        assert all(r.iteration.iteration_time_s > 0 for r in results)
        assert all(r.deliveries for r in results)

    def test_constructor_memory_released_across_steps(self, system):
        system.run_step()
        system.run_step()
        for handle in system.constructor_handles:
            # Only the most recent step (or two with double buffering) stays staged.
            assert len(handle.instance().staged_steps()) <= 2

    def test_broadcast_excluded_ranks_receive_no_delivery(self, system):
        result = system.run_step()
        world = system.tree.mesh.world_size
        assert len(result.deliveries) == len(result.plan.fetching_ranks)
        assert len(result.deliveries) < world

    def test_plan_demands_are_served_by_loaders(self, system):
        result = system.run_step()
        prepared_total = sum(
            handle.instance().stats.samples_delivered for handle in system.loader_handles
        )
        assert prepared_total >= result.plan.total_samples()

    def test_balanced_assignment_beats_arrival_order(self, system):
        result = system.run_step(simulate=True)
        rows = result.plan.module("backbone").rows
        flat = list(range(len(rows)))  # row positions, in plan order
        dp = system.job.dp
        microbatches = system.job.num_microbatches
        per_bucket = (len(flat) + dp - 1) // dp
        arrival = []
        for b in range(dp):
            chunk = flat[b * per_bucket : (b + 1) * per_bucket]
            per_mb = max(1, (len(chunk) + microbatches - 1) // microbatches)
            arrival.append([chunk[m * per_mb : (m + 1) * per_mb] for m in range(microbatches)])
        bins = [mb for rank in arrival for mb in rank]
        order = [position for bin_ in bins for position in bin_]
        naive = system.simulator.simulate_iteration(
            TokenBins(
                rows.total_tokens[order],
                rows.image_tokens[order],
                list(accumulate(map(len, bins), initial=0)),
                dp,
                microbatches,
            )
        )
        assert result.iteration.iteration_time_s <= naive.iteration_time_s * 1.05


class TestTextOnlyEndToEnd:
    def test_backbone_balance_pipeline(self):
        job = TrainingJobSpec(
            pp=2, dp=2, cp=1, tp=1, backbone="Mixtral-8x7B", encoder=None,
            dataset_group="coyo700m", samples_per_dp_step=8, num_microbatches=4,
            num_sources=3, samples_per_source=64, strategy="backbone_balance", seed=5,
        )
        system = MegaScaleData.deploy(job)
        summary = system.run_training(num_steps=3)
        assert summary["steps"] == 3
        assert summary["throughput_tokens_per_s"] > 0

    def test_curriculum_mixture_shifts_demand(self):
        job = TrainingJobSpec(
            pp=1, dp=2, cp=1, tp=1, encoder=None, strategy="backbone_balance",
            samples_per_dp_step=16, num_microbatches=2, num_sources=2,
            samples_per_source=128, seed=9,
        )
        # Deploy first so the synthetic source names are known, then install a
        # staged (curriculum) mixture over them.
        system = MegaScaleData.deploy(job)
        names = system.catalog.names()
        mixture = MixtureSchedule.staged(
            [
                MixturePhase(0, {names[0]: 0.95, names[1]: 0.05}),
                MixturePhase(2, {names[0]: 0.05, names[1]: 0.95}),
            ]
        )
        system.set_mixture(mixture)
        early = system.run_step(step=0)
        late = system.run_step(step=3)

        def share(result, name):
            demands = result.plan.source_demands
            total = sum(len(ids) for ids in demands.values())
            return len(demands.get(name, [])) / max(1, total)

        assert share(early, names[0]) > share(late, names[0])
        assert share(late, names[1]) > share(early, names[1])


class TestFaultToleranceIntegration:
    def test_shadow_loader_failover_keeps_training_going(self):
        job = TrainingJobSpec(
            pp=1, dp=2, cp=1, tp=1, encoder=None, strategy="backbone_balance",
            samples_per_dp_step=8, num_microbatches=2, num_sources=3,
            samples_per_source=64, enable_shadow_loaders=True, seed=1,
        )
        def demanded(result):
            return {source: list(ids) for source, ids in result.plan.source_demands.items()}

        reference = MegaScaleData.deploy(job)
        expected = [demanded(reference.run_step()) for _ in range(6)]
        reference.shutdown()

        system = MegaScaleData.deploy(job)
        got = [demanded(system.run_step())]

        victim = system.loader_handles[0]
        system.system.failures.fail(victim.name)
        failed = system.fault_manager.detect_failures(system.loader_handles)
        assert victim in failed

        system.recover_fleet_member(victim, system.step)
        assert system.fault_manager.events()[-1].kind == "shadow_promotion"
        assert victim not in system.loader_handles

        for _ in range(5):
            result = system.run_step()
            assert result.deliveries
            got.append(demanded(result))
        # The promoted shadow resumes the failed loader's exact sample stream.
        assert got == expected
        system.shutdown()

    def test_planner_restart_resumes_from_gcs(self):
        job = TrainingJobSpec(
            pp=1, dp=1, cp=1, tp=1, encoder=None, strategy="vanilla",
            samples_per_dp_step=4, num_microbatches=2, num_sources=2,
            samples_per_source=32, seed=2,
        )
        system = MegaScaleData.deploy(job)
        system.run_step()
        system.run_step()
        planner = system.planner_handle.instance()
        state = planner.state_dict()
        system.system.kill_actor("planner")
        system.system.restart_actor("planner", state=state)
        restarted = system.planner_handle.instance()
        restarted.register_loaders(system.loader_handles)
        assert restarted.replay_from_gcs() >= 2
