"""Fig. 18 — impact of the balancer on training-loss convergence.

The balancer only moves samples between microbatches (inter-microbatch
balancing, no intra-microbatch reordering of the global batch), so without
context parallelism the loss curve should track the unbalanced baseline almost
exactly; with CP enabled the modified sequence partitioning adds small,
bounded numerical fluctuations while convergence is preserved.
"""

from __future__ import annotations

import numpy as np

from repro.core.balancing import WeightedItem, balance_items
from repro.metrics.report import MetricReport
from repro.training.convergence import ConvergenceSimulator, max_divergence

from .conftest import emit, sample_batch

STEPS = 50
SAMPLES_PER_STEP = 32
NUM_MICROBATCHES = 4


def _build_step_batches(catalog, filesystem, balanced):
    batches = []
    for step in range(STEPS):
        samples = sample_batch(catalog, filesystem, SAMPLES_PER_STEP, seed=100 + step)
        if balanced:
            items = [WeightedItem(key=s, cost=float(s.total_tokens) ** 2) for s in samples]
            result = balance_items(items, NUM_MICROBATCHES)
            ordered = [item.key for bin_ in result.bins for item in bin_]
        else:
            ordered = samples
        batches.append(ordered)
    return batches


def _loss_curves(catalog, filesystem):
    curves = {}
    for cp in (False, True):
        for balanced in (False, True):
            batches = _build_step_batches(catalog, filesystem, balanced)
            sim = ConvergenceSimulator(context_parallel=cp, seed=18)
            curves[(cp, balanced)] = sim.run(batches)
    return curves


def test_fig18_loss_convergence(benchmark, coyo_catalog, filesystem):
    curves = benchmark(_loss_curves, coyo_catalog, filesystem)

    report = MetricReport(
        title="Fig. 18 - training loss with / without the balancer",
        columns=["configuration", "initial loss", "final loss", "max |delta| vs unbalanced"],
    )
    for cp in (False, True):
        baseline = curves[(cp, False)]
        balanced = curves[(cp, True)]
        label = "with CP" if cp else "without CP"
        report.add_row(
            f"balance=False ({label})", round(baseline[0], 3), round(baseline[-1], 3), 0.0
        )
        report.add_row(
            f"balance=True ({label})",
            round(balanced[0], 3),
            round(balanced[-1], 3),
            round(max_divergence(baseline, balanced), 4),
        )
    emit(report)

    # Without CP: the balanced loss tightly tracks the baseline (the global
    # batch content per step is identical; only microbatch membership moves).
    no_cp_divergence = max_divergence(curves[(False, False)], curves[(False, True)])
    assert no_cp_divergence < 0.05
    # With CP: small fluctuations appear but stay bounded.
    cp_divergence = max_divergence(curves[(True, False)], curves[(True, True)])
    assert cp_divergence < 0.2
    # Convergence is preserved in every configuration.
    for series in curves.values():
        assert series[-1] < series[0]
        assert np.mean(series[-5:]) < np.mean(series[:5])
