"""Unit tests for the encoder/backbone cost models."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columns import SampleColumns
from repro.core.cost_model import (
    BackboneCostModel,
    EncoderCostModel,
)
from repro.training.models import llama_12b, mixtral_8x7b, vit_1b, vit_2b
from repro.training.flops import encoder_sample_flops, sequence_backbone_flops
from repro.training.simulator import BACKWARD_MULTIPLIER, GpuSpec


def per_row(model, *samples) -> list[float]:
    """``model``'s load of each sample, evaluated over their rows."""
    return model(SampleColumns.from_samples(list(samples))).tolist()


class TestEncoderCostModel:
    def test_cost_grows_superlinearly_with_patches(self, sample_factory):
        model = EncoderCostModel(vit_1b())
        small, large = per_row(
            model, sample_factory(0, image_tokens=1024), sample_factory(1, image_tokens=4096)
        )
        assert large > 4 * small

    def test_larger_encoder_costs_more(self, sample_factory):
        metadata = sample_factory(0, image_tokens=2048)
        [larger] = per_row(EncoderCostModel(vit_2b()), metadata)
        assert larger > per_row(EncoderCostModel(vit_1b()), metadata)[0]

    def test_latency_is_forward_plus_backward_flops(self, sample_factory):
        metadata = sample_factory(0, image_tokens=1024)
        [latency] = per_row(EncoderCostModel(vit_1b()), metadata)
        flops = encoder_sample_flops(1024, vit_1b()) * (1.0 + BACKWARD_MULTIPLIER)
        assert latency == GpuSpec().seconds_for(flops)


class TestBackboneCostModel:
    def test_cost_grows_with_tokens(self, sample_factory):
        model = BackboneCostModel(llama_12b())
        long, short = per_row(
            model, sample_factory(0, text_tokens=4096), sample_factory(1, text_tokens=512)
        )
        assert long > short

    def test_latency_is_forward_plus_backward_flops(self, sample_factory):
        backbone = llama_12b()
        [latency] = per_row(BackboneCostModel(backbone), sample_factory(0, text_tokens=1024))
        flops = sequence_backbone_flops(1024, backbone)
        flops += 2.0 * 1024 * backbone.hidden_size * backbone.vocab_size
        assert latency == GpuSpec().seconds_for(flops * (1.0 + BACKWARD_MULTIPLIER))

    def test_moe_backbone_supported(self, sample_factory):
        [load] = per_row(BackboneCostModel(mixtral_8x7b()), sample_factory(0, text_tokens=1024))
        assert load > 0


class TestCapacitySplitLaneModel:
    """Fair-share stretching of pool-amortised durations under contention."""

    def test_no_contention_is_amortized(self):
        from repro.core.cost_model import capacity_split_duration_s

        assert capacity_split_duration_s(2.0, 10.0, ()) == pytest.approx(2.0)
        # Lanes that already drained do not contend.
        assert capacity_split_duration_s(2.0, 10.0, (9.0, 10.0)) == pytest.approx(2.0)

    def test_full_overlap_splits_pool(self):
        from repro.core.cost_model import capacity_split_duration_s

        # One busy lane covering the whole chunk: half the pool -> 2x.
        assert capacity_split_duration_s(1.0, 0.0, (100.0,)) == pytest.approx(2.0)
        # Two busy lanes covering everything: a third of the pool -> 3x.
        assert capacity_split_duration_s(1.0, 0.0, (100.0, 100.0)) == pytest.approx(3.0)

    def test_partial_overlap_integrates_piecewise(self):
        from repro.core.cost_model import capacity_split_duration_s

        # Busy lane ends at t=1: first second at half speed (0.5 units of
        # work), remaining 0.5 units at full speed -> 1.5s total.
        assert capacity_split_duration_s(1.0, 0.0, (1.0,)) == pytest.approx(1.5)
        # Barely-overlapping lane stretches almost nothing (the naive xN
        # model would have doubled the whole chunk).
        assert capacity_split_duration_s(1.0, 0.0, (0.01,)) == pytest.approx(1.005)

    def test_work_conservation_pairwise(self):
        from repro.core.cost_model import capacity_split_duration_s

        # Ticket A booked alone for [0, 1]; ticket B arrives at 0 with the
        # same work: B finishes at 1.5 — together 2 units of work completed
        # by t=1.5 with a peak of 2 lanes, never exceeding pool capacity.
        a_end = capacity_split_duration_s(1.0, 0.0, ())
        b_duration = capacity_split_duration_s(1.0, 0.0, (a_end,))
        assert a_end == pytest.approx(1.0)
        assert b_duration == pytest.approx(1.5)

    def test_provider_lane_models(self):
        from repro.core.cost_model import DataPlaneLatencyProvider

        result = {"chunk_wall_clock_s": (3.0, 1.0)}
        split = DataPlaneLatencyProvider()
        assert split.wants_lane_context
        assert split.call_duration_s(
            object(), "poll", result, busy_lanes=2, start_s=0.0, lane_ends_s=(50.0,),
            role="source_loader", chunk=1,
        ) == pytest.approx(2.0)
        # Each chunk is priced from its own entry, with its own lane context.
        assert split.call_duration_s(
            object(), "poll", result, start_s=0.0, role="source_loader", chunk=0,
        ) == pytest.approx(3.0)


def _sorting_capacity_split(amortized_s, start_s, lane_ends_s):
    """The lane model as it read before the engines kept lane ends sorted."""
    remaining = float(amortized_s)
    if remaining <= 0.0:
        return 0.0
    ends = sorted(end for end in lane_ends_s if end > start_s)
    now = float(start_s)
    for index, end in enumerate(ends):
        share = 1.0 / (len(ends) - index + 1)
        window = (end - now) * share
        if window >= remaining:
            return now + remaining / share - start_s
        remaining -= window
        now = end
    return now + remaining - start_s


@given(
    amortized_s=st.floats(0.0, 10.0, allow_nan=False),
    start_s=st.floats(0.0, 10.0, allow_nan=False),
    lane_ends_s=st.lists(st.floats(0.0, 20.0, allow_nan=False), max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_capacity_split_over_sorted_lanes_equals_the_sorting_model(amortized_s, start_s, lane_ends_s):
    from repro.core.cost_model import capacity_split_duration_s

    ends = sorted(lane_ends_s)
    assert capacity_split_duration_s(amortized_s, start_s, ends) == _sorting_capacity_split(
        amortized_s, start_s, lane_ends_s
    )
