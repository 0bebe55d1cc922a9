"""Unit tests for the training iteration simulator."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.parallelism.mesh import DeviceMesh
from repro.training.models import VLMConfig, llama_12b, vit_1b
from repro.training.simulator import GpuSpec, TrainingSimulator


def assignments_for(sample_factory, dp, microbatches, tokens_per_sample, samples_per_mb=2, image_tokens=0):
    counter = [0]

    def next_sample(tokens):
        counter[0] += 1
        return sample_factory(counter[0], text_tokens=tokens, image_tokens=image_tokens)

    return [
        [[next_sample(tokens_per_sample) for _ in range(samples_per_mb)] for _ in range(microbatches)]
        for _ in range(dp)
    ]


@pytest.fixture()
def text_simulator():
    return TrainingSimulator(llama_12b(), DeviceMesh(pp=1, dp=2, cp=1, tp=1))


@pytest.fixture()
def vlm_simulator():
    model = VLMConfig(encoder=vit_1b(), backbone=llama_12b())
    return TrainingSimulator(model, DeviceMesh(pp=1, dp=2, cp=1, tp=2))


class TestBasics:
    def test_gpu_seconds_for(self):
        gpu = GpuSpec()
        assert gpu.seconds_for(0) == 0.0
        assert gpu.seconds_for(gpu.peak_flops * gpu.mfu) == pytest.approx(1.0)

    def test_wrong_dp_count_rejected(self, text_simulator, sample_factory):
        with pytest.raises(ConfigurationError):
            text_simulator.simulate_iteration(assignments_for(sample_factory, dp=3, microbatches=1, tokens_per_sample=10))

    def test_iteration_result_fields(self, text_simulator, sample_factory):
        result = text_simulator.simulate_iteration(
            assignments_for(sample_factory, dp=2, microbatches=2, tokens_per_sample=512)
        )
        assert result.iteration_time_s > 0
        assert result.total_tokens == 2 * 2 * 2 * 512
        assert result.throughput_tokens_per_s > 0
        assert len(result.per_dp_time_s) == 2

    def test_encoder_disabled_for_text_models(self, text_simulator, sample_factory):
        result = text_simulator.simulate_iteration(
            assignments_for(sample_factory, dp=2, microbatches=1, tokens_per_sample=128)
        )
        assert result.encoder_time_s == 0.0
        assert result.alltoall_time_s == 0.0

    def test_vlm_has_encoder_and_alltoall(self, vlm_simulator, sample_factory):
        result = vlm_simulator.simulate_iteration(
            assignments_for(sample_factory, dp=2, microbatches=1, tokens_per_sample=64, image_tokens=512)
        )
        assert result.encoder_time_s > 0
        assert result.alltoall_time_s > 0


class TestScalingBehaviour:
    def test_longer_sequences_take_longer(self, text_simulator, sample_factory):
        short = text_simulator.simulate_iteration(
            assignments_for(sample_factory, dp=2, microbatches=2, tokens_per_sample=256)
        )
        long = text_simulator.simulate_iteration(
            assignments_for(sample_factory, dp=2, microbatches=2, tokens_per_sample=2048)
        )
        assert long.iteration_time_s > short.iteration_time_s

    def test_imbalanced_assignment_slower_than_balanced(self, text_simulator, sample_factory):
        balanced = [
            [[sample_factory(1, text_tokens=1000), sample_factory(2, text_tokens=1000)]],
            [[sample_factory(3, text_tokens=1000), sample_factory(4, text_tokens=1000)]],
        ]
        imbalanced = [
            [[sample_factory(5, text_tokens=1900), sample_factory(6, text_tokens=1900)]],
            [[sample_factory(7, text_tokens=100), sample_factory(8, text_tokens=100)]],
        ]
        fast = text_simulator.simulate_iteration(balanced)
        slow = text_simulator.simulate_iteration(imbalanced)
        assert slow.iteration_time_s > fast.iteration_time_s
        assert slow.bubble_time_s > fast.bubble_time_s

    def test_model_parallel_sharding_reduces_per_rank_time(self, sample_factory):
        mesh_small = DeviceMesh(pp=1, dp=2, cp=1, tp=1)
        mesh_big = DeviceMesh(pp=2, dp=2, cp=1, tp=2)
        assignments = assignments_for(sample_factory, dp=2, microbatches=2, tokens_per_sample=1024)
        t_small = TrainingSimulator(llama_12b(), mesh_small).simulate_iteration(assignments)
        t_big = TrainingSimulator(llama_12b(), mesh_big).simulate_iteration(assignments)
        assert t_big.backbone_time_s < t_small.backbone_time_s

    def test_fetch_latency_exposed_only_when_longer_than_compute(
        self, text_simulator, sample_factory
    ):
        assignments = assignments_for(sample_factory, dp=2, microbatches=2, tokens_per_sample=1024)
        hidden = text_simulator.simulate_iteration(assignments, data_fetch_latency_s=0.001)
        exposed = text_simulator.simulate_iteration(assignments, data_fetch_latency_s=1e4)
        assert hidden.exposed_fetch_time_s == 0.0
        assert exposed.exposed_fetch_time_s > 0.0
        assert exposed.iteration_time_s > hidden.iteration_time_s

    def test_peak_activation_tracks_largest_microbatch(self, text_simulator, sample_factory):
        assignments = [
            [[sample_factory(1, text_tokens=100)], [sample_factory(2, text_tokens=900)]],
            [[sample_factory(3, text_tokens=500)], [sample_factory(4, text_tokens=500)]],
        ]
        result = text_simulator.simulate_iteration(assignments)
        assert result.peak_activation_tokens == 900

    def test_alltoall_grows_with_image_payload(self, sample_factory):
        model = VLMConfig(encoder=vit_1b(), backbone=llama_12b())
        simulator = TrainingSimulator(model, DeviceMesh(pp=1, dp=2, cp=1, tp=1))
        small, large = (
            assignments_for(
                sample_factory, dp=2, microbatches=1, tokens_per_sample=64, image_tokens=tokens
            )
            for tokens in (2048, 8192)
        )
        assert (
            simulator.simulate_iteration(large).alltoall_time_s
            > simulator.simulate_iteration(small).alltoall_time_s
        )

    def test_timeline_recorded_per_dp_and_microbatch(self, text_simulator, sample_factory):
        result = text_simulator.simulate_iteration(
            assignments_for(sample_factory, dp=2, microbatches=3, tokens_per_sample=128)
        )
        assert len(result.timeline.events(component="dp0")) == 3
        assert len(result.timeline.events(component="dp1")) == 3
