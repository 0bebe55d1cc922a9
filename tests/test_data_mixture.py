"""Unit tests for mixture schedules."""

from __future__ import annotations

import pytest

from repro.data.mixture import WEIGHTS_MEMO_WINDOW, MixturePhase, MixtureSchedule
from repro.errors import MixtureError


class TestStatic:
    def test_weights_normalized(self):
        schedule = MixtureSchedule.static({"a": 2.0, "b": 2.0})
        weights = schedule.weights_at(0)
        assert weights == {"a": 0.5, "b": 0.5}

    def test_negative_weight_rejected(self):
        with pytest.raises(MixtureError):
            MixtureSchedule.static({"a": -1.0, "b": 2.0})

    def test_zero_sum_rejected(self):
        with pytest.raises(MixtureError):
            MixtureSchedule.static({"a": 0.0})

    def test_uniform(self):
        schedule = MixtureSchedule.uniform(["a", "b", "c", "d"])
        assert schedule.weights_at(10)["c"] == pytest.approx(0.25)

    def test_uniform_requires_sources(self):
        with pytest.raises(MixtureError):
            MixtureSchedule.uniform([])

    def test_negative_step_rejected(self):
        schedule = MixtureSchedule.uniform(["a"])
        with pytest.raises(MixtureError):
            schedule.weights_at(-1)


class TestStaged:
    def test_phase_switching(self):
        schedule = MixtureSchedule.staged(
            [
                MixturePhase(0, {"easy": 0.9, "hard": 0.1}),
                MixturePhase(100, {"easy": 0.3, "hard": 0.7}),
            ]
        )
        assert schedule.weights_at(50)["easy"] == pytest.approx(0.9)
        assert schedule.weights_at(150)["hard"] == pytest.approx(0.7)

    def test_first_phase_must_start_at_zero(self):
        with pytest.raises(MixtureError):
            MixtureSchedule.staged([MixturePhase(10, {"a": 1.0})])

    def test_missing_source_in_phase_gets_zero(self):
        schedule = MixtureSchedule.staged(
            [MixturePhase(0, {"a": 1.0}), MixturePhase(5, {"b": 1.0})]
        )
        assert schedule.weights_at(0)["b"] == 0.0
        assert schedule.weights_at(6)["a"] == 0.0

    def test_empty_phase_list_rejected(self):
        with pytest.raises(MixtureError):
            MixtureSchedule.staged([])


class TestWarmup:
    def test_interpolation(self):
        schedule = MixtureSchedule.warmup({"a": 1.0, "b": 0.0001}, {"a": 0.0001, "b": 1.0}, 100)
        early = schedule.weights_at(0)
        late = schedule.weights_at(100)
        assert early["a"] > 0.9
        assert late["b"] > 0.9
        mid = schedule.weights_at(50)
        assert 0.4 < mid["a"] < 0.6

    def test_requires_positive_steps(self):
        with pytest.raises(MixtureError):
            MixtureSchedule.warmup({"a": 1.0}, {"a": 1.0}, 0)


class TestSamplingAndAverages:
    def test_moving_average_tracks_schedule_change(self):
        schedule = MixtureSchedule.staged(
            [MixturePhase(0, {"a": 1.0, "b": 0.0001}), MixturePhase(10, {"a": 0.0001, "b": 1.0})]
        )
        avg_before = schedule.moving_average(5, window=5)
        avg_after = schedule.moving_average(30, window=5)
        assert avg_before["a"] > 0.9
        assert avg_after["b"] > 0.9

    def test_moving_average_window_validation(self):
        schedule = MixtureSchedule.uniform(["a"])
        with pytest.raises(MixtureError):
            schedule.moving_average(5, window=0)


class TestWeightsMemo:
    def test_weights_at_is_memoized_per_step(self):
        calls = []

        def weight_fn(step):
            calls.append(step)
            return {"a": 0.5, "b": 0.5}

        schedule = MixtureSchedule(weight_fn, ["a", "b"])
        for _ in range(5):
            schedule.weights_at(3)
        schedule.moving_average(3, window=4)  # re-reads steps 0..3
        assert calls.count(3) == 1

    def test_memoized_weights_are_copies(self):
        schedule = MixtureSchedule.static({"a": 1.0, "b": 1.0})
        first = schedule.weights_at(0)
        first["a"] = 99.0  # mutating the returned dict must not poison the memo
        assert schedule.weights_at(0)["a"] == pytest.approx(0.5)

    def test_memo_keeps_a_window_of_the_newest_steps(self):
        schedule = MixtureSchedule.static({"a": 1.0})
        for step in range(1000):
            schedule.weights_at(step)
        assert list(schedule._weights_memo) == list(range(1000 - WEIGHTS_MEMO_WINDOW, 1000))

    def test_planning_and_flushed_replanning_compute_each_step_once(self):
        calls = []

        def weight_fn(step):
            calls.append(step)
            return {"a": 1.0 + step % 3, "b": 1.0}

        schedule = MixtureSchedule(weight_fn, ["a", "b"])

        def plan(step):
            schedule.weights_at(step)
            schedule.moving_average(step, window=10)

        for step in range(300):
            plan(step)
            if step % 20 == 19:  # a flush of a 6-step prefetch window re-plans it
                for replanned in range(step - 5, step + 1):
                    plan(replanned)
        assert calls == list(range(300))


class TestDescriptor:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: MixtureSchedule.static({"a": 3.0, "b": 1.0}),
            lambda: MixtureSchedule.uniform(["a", "b", "c"]),
            lambda: MixtureSchedule.staged(
                [MixturePhase(0, {"a": 1.0}), MixturePhase(5, {"a": 0.2, "b": 0.8})]
            ),
            lambda: MixtureSchedule.warmup({"a": 1.0}, {"a": 0.5, "b": 0.5}, warmup_steps=4),
        ],
        ids=["static", "uniform", "staged", "warmup"],
    )
    def test_descriptor_round_trips(self, build):
        schedule = build()
        rebuilt = MixtureSchedule.from_descriptor(schedule.descriptor())
        assert rebuilt.description == schedule.description
        assert rebuilt.source_names == schedule.source_names
        for step in (0, 2, 4, 5, 9):
            assert rebuilt.weights_at(step) == pytest.approx(schedule.weights_at(step))

    def test_custom_schedule_has_no_descriptor(self):
        custom = MixtureSchedule(lambda step: {"a": 1.0}, ["a"])
        assert custom.descriptor() is None

    def test_unknown_descriptor_kind_rejected(self):
        with pytest.raises(MixtureError):
            MixtureSchedule.from_descriptor({"recipe": ("zipf", 1.2), "description": "zipf"})

    def test_source_names_is_a_copy(self):
        schedule = MixtureSchedule.uniform(["a", "b"])
        schedule.source_names.append("c")
        assert schedule.source_names == ["a", "b"]


class TestInvalidateWeights:
    def test_invalidate_recomputes_only_later_steps(self):
        state = {"a": 1.0, "b": 1.0}
        schedule = MixtureSchedule(lambda step: dict(state), ["a", "b"])
        early, late = schedule.weights_at(2), schedule.weights_at(6)
        state["a"] = 3.0
        schedule.invalidate_weights_from(5)
        assert schedule.weights_at(2) == early
        assert schedule.weights_at(6) != late
        assert schedule.weights_at(6)["a"] == pytest.approx(0.75)
