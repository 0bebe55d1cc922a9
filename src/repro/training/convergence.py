"""Training-loss convergence simulator (Fig. 18).

Fig. 18 shows that inter-microbatch balancing leaves the loss curve
essentially unchanged without context parallelism, and introduces only minor
fluctuations when CP repartitions sequences across devices (numerical
differences in distributed GEMM reductions).  This module provides a small
stochastic loss model that reproduces those qualitative behaviours so the
figure can be regenerated deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.samples import SampleMetadata
from repro.utils.rng import derive_rng


@dataclass(frozen=True)
class ConvergenceConfig:
    """Parameters of the synthetic loss model."""

    initial_loss: float = 12.0
    floor_loss: float = 1.8
    tokens_to_halve: float = 5.0e6
    sample_noise_scale: float = 0.08
    cp_numerical_noise: float = 0.02


class ConvergenceSimulator:
    """Simulates a per-step training loss given the stream of consumed samples.

    The expected loss follows a smooth power-law decay in cumulative tokens;
    per-step deviation depends on the *content* of the step's batch (how many
    hard/long samples it contains), so reordering samples inside a step leaves
    the curve unchanged while moving samples across steps perturbs it slightly.
    Enabling ``context_parallel`` adds a small extra noise term modelling the
    modified reduction order of distributed GEMMs.
    """

    def __init__(
        self,
        config: ConvergenceConfig | None = None,
        context_parallel: bool = False,
        seed: int = 0,
    ) -> None:
        self.config = config or ConvergenceConfig()
        self.context_parallel = context_parallel
        self._seed = seed
        self._cumulative_tokens = 0.0
        self._step = 0
        self._losses: list[float] = []

    def expected_loss(self, cumulative_tokens: float) -> float:
        """Smooth loss trajectory as a function of tokens consumed."""
        cfg = self.config
        halvings = cumulative_tokens / cfg.tokens_to_halve
        return cfg.floor_loss + (cfg.initial_loss - cfg.floor_loss) * 0.5**halvings

    def step(self, batch: list[SampleMetadata]) -> float:
        """Consume one global batch and return the observed (reduced) loss."""
        tokens = float(sum(sample.total_tokens for sample in batch))
        self._cumulative_tokens += tokens
        base = self.expected_loss(self._cumulative_tokens)

        # Content-dependent deviation: a batch heavy in long sequences is
        # "harder" than average, pushing the observed loss slightly above the
        # trajectory.  The deviation depends only on *which* samples are in the
        # batch, not their order, via an order-invariant hash.
        if batch:
            lengths = np.array([sample.total_tokens for sample in batch], dtype=float)
            hardness = float(np.log1p(lengths).mean() - np.log1p(lengths.mean()))
        else:
            hardness = 0.0
        content_key = sum(sample.sample_id for sample in batch) % (2**31)
        rng = derive_rng(self._seed, "content", content_key)
        content_noise = self.config.sample_noise_scale * float(rng.normal())

        cp_noise = 0.0
        if self.context_parallel:
            cp_rng = derive_rng(self._seed, "cp", self._step)
            cp_noise = self.config.cp_numerical_noise * float(cp_rng.normal())

        loss = base + 0.3 * hardness + content_noise + cp_noise
        self._losses.append(loss)
        self._step += 1
        return loss

    def run(self, batches: list[list[SampleMetadata]]) -> list[float]:
        """Consume a sequence of batches and return the per-step loss series."""
        return [self.step(batch) for batch in batches]

    @property
    def cumulative_tokens(self) -> float:
        return self._cumulative_tokens


def max_divergence(reference: list[float], candidate: list[float]) -> float:
    """Largest absolute per-step difference between two loss curves."""
    length = min(len(reference), len(candidate))
    if length == 0:
        return 0.0
    ref = np.asarray(reference[:length])
    cand = np.asarray(candidate[:length])
    return float(np.abs(ref - cand).max())
