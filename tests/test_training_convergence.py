"""Unit tests for the loss convergence simulator (Fig. 18 substrate)."""

from __future__ import annotations

import pytest

from repro.training.convergence import (
    FLOOR_LOSS,
    INITIAL_LOSS,
    TOKENS_TO_HALVE,
    ConvergenceSimulator,
    max_divergence,
)


def make_batches(sample_factory, steps=20, batch_size=8, tokens=256):
    batches = []
    counter = 0
    for _ in range(steps):
        batch = []
        for _ in range(batch_size):
            batch.append(sample_factory(counter, text_tokens=tokens))
            counter += 1
        batches.append(batch)
    return batches


class TestConvergence:
    def test_loss_decreases_over_training(self, sample_factory):
        sim = ConvergenceSimulator()
        losses = sim.run(make_batches(sample_factory, steps=40, tokens=4096))
        assert losses[-1] < losses[0]

    def test_expected_loss_monotone(self):
        sim = ConvergenceSimulator()
        assert sim.expected_loss(0) > sim.expected_loss(1e7) > sim.expected_loss(1e9)

    def test_floor_respected(self):
        sim = ConvergenceSimulator()
        assert sim.expected_loss(1e18) == pytest.approx(FLOOR_LOSS, abs=1e-6)

    def test_excess_loss_halves_every_tokens_to_halve(self):
        sim = ConvergenceSimulator()
        assert sim.expected_loss(0) == pytest.approx(INITIAL_LOSS)
        assert sim.expected_loss(TOKENS_TO_HALVE) == pytest.approx(
            FLOOR_LOSS + (INITIAL_LOSS - FLOOR_LOSS) / 2
        )

    def test_same_batches_same_losses(self, sample_factory):
        batches = make_batches(sample_factory)
        a = ConvergenceSimulator().run(batches)
        b = ConvergenceSimulator().run(batches)
        assert a == b

    def test_intra_step_reordering_does_not_change_loss(self, sample_factory):
        batches = make_batches(sample_factory)
        reordered = [list(reversed(batch)) for batch in batches]
        a = ConvergenceSimulator().run(batches)
        b = ConvergenceSimulator().run(reordered)
        assert max_divergence(a, b) == pytest.approx(0.0)

    def test_cross_step_reassignment_perturbs_loss_slightly(self, sample_factory):
        batches = make_batches(sample_factory, steps=10)
        swapped = [list(batch) for batch in batches]
        swapped[0][0], swapped[5][0] = swapped[5][0], swapped[0][0]
        a = ConvergenceSimulator().run(batches)
        b = ConvergenceSimulator().run(swapped)
        divergence = max_divergence(a, b)
        assert 0.0 < divergence < 1.0

    def test_cp_adds_bounded_noise(self, sample_factory):
        batches = make_batches(sample_factory, steps=30)
        base = ConvergenceSimulator(context_parallel=False).run(batches)
        with_cp = ConvergenceSimulator(context_parallel=True).run(batches)
        divergence = max_divergence(base, with_cp)
        assert 0.0 < divergence < 0.2

    def test_max_divergence_empty(self):
        assert max_divergence([], [1.0]) == 0.0
