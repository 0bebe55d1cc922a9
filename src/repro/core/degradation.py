"""Degraded-mode policy and the per-step batch bound it is half of.

:class:`DegradationController` is the renormalize-mode bookkeeping (dark
sources, deficit ledger, catch-up schedule); :func:`ensure_sized_strategy`
installs the bounded sampling strategy that caps every plan at the job's
per-step sample budget — by buffer share for healthy strict-mode jobs, by
the controller's exact integer quotas whenever one is installed.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from repro.core.columns import SampleColumns
from repro.core.dgraph import expected_quotas
from repro.core.job import TrainingJobSpec
from repro.core.planner import Planner
from repro.core.plans import LoadingPlan
from repro.data.mixture import MixtureSchedule
from repro.data.sources import SourceCatalog


class DegradationController:
    """Renormalize-mode policy: drop dark sources, repay their quota later.

    Owns the degraded-mode bookkeeping for one job:

    - **dark set** — sources whose loaders are all dead or blacked out and
      whose recovery keeps failing.  Dark sources are excluded from the
      Planner's gather (no RPCs are issued to them), so ``DGraph.mix``
      renormalizes the mixture over the survivors automatically.
    - **deficit ledger** — per-source integer sample debt.  Every observed
      plan is compared against the quota the *nominal* mixture would have
      allocated (``expected_quotas``); a dark source accrues a positive
      deficit, the survivors that over-drew accrue the matching negative
      one, so the ledger always sums to zero.
    - **catch-up schedule** — the controller exposes a
      :class:`MixtureSchedule` wrapping the nominal one; while deficits are
      outstanding its per-step weights move capped integer quota from the
      over-drawn sources back to the owed ones.  Because the catch-up
      weights are exact quota fractions, largest-remainder rounding in
      ``mix`` reproduces them sample-exactly and the ledger drains to zero
      in a deterministic, bounded number of steps.

    The wrapped schedule must exist before the Planner is spawned, so the
    facade binds the two collaborators afterwards: ``recovery`` (the
    :class:`~repro.core.recovery.FleetRecovery` that heals and rewinds
    loaders, and knows the planner and the clock) and ``overlap`` (the
    ledger degrade/restore decisions are logged to).
    """

    def __init__(self, job: TrainingJobSpec, source_names: list[str]) -> None:
        self.job = job
        self.source_names = list(source_names)
        self.base = job.mixture or MixtureSchedule.uniform(self.source_names)
        self.schedule = MixtureSchedule(
            self._weights_at,
            self.source_names,
            description=f"degradable({self.base.description})",
        )
        self.recovery = None
        self.overlap = None
        #: source -> step it went dark at.
        self.dark: dict[str, int] = {}
        #: source -> samples owed (+) / over-drawn (-); sums to zero.
        self.deficits: dict[str, int] = {name: 0 for name in self.source_names}
        #: step -> that step's deficit deltas, kept so flushed/re-planned
        #: steps can be rewound exactly (bounded; pruned past the window).
        self._step_deltas: dict[int, dict[str, int]] = {}

    # -- state ------------------------------------------------------------------

    @property
    def active(self) -> bool:
        return bool(self.dark) or any(self.deficits.values())

    @property
    def target(self) -> int:
        return self.job.global_samples_per_step()

    def can_degrade(self, sources: set[str]) -> bool:
        """Whether dropping ``sources`` still leaves a source to sample from."""
        return bool(set(self.source_names) - set(self.dark) - sources)

    def rebase(self, mixture: MixtureSchedule | None) -> None:
        """Adopt a new nominal mixture (runtime ``set_mixture`` swaps)."""
        self.base = mixture or MixtureSchedule.uniform(self.source_names)
        self.schedule.invalidate_weights_from(0)

    # -- mixture ----------------------------------------------------------------

    def _weights_at(self, step: int) -> dict[str, float]:
        base = self.base.weights_at(step)
        if not any(self.deficits.values()):
            return base
        desired = self._desired_quotas(base)
        return {name: desired[name] / self.target for name in desired}

    def _desired_quotas(self, base: dict[str, float]) -> dict[str, int]:
        """This step's per-source quota with capped catch-up transfers.

        Moves up to one nominal quota's worth of samples per step from the
        over-drawn (negative-deficit) sources to the owed ones; dark sources
        sit the exchange out.  The transfer nets to zero, so the quotas
        still sum to the step target and largest-remainder rounding in
        ``mix`` reproduces them exactly.
        """
        target = self.target
        expected = expected_quotas(base, target)
        owed = {
            name: debt
            for name, debt in self.deficits.items()
            if debt > 0 and name not in self.dark
        }
        lent = {
            name: min(-debt, expected.get(name, 0))
            for name, debt in self.deficits.items()
            if debt < 0 and name not in self.dark
        }
        pool = min(sum(owed.values()), sum(lent.values()))
        desired = dict(expected)
        for side, sign in ((owed, 1), (lent, -1)):
            left = pool
            for name in sorted(side):
                if left <= 0:
                    break
                amount = min(side[name], left)
                desired[name] = desired.get(name, 0) + sign * amount
                left -= amount
        return desired

    # -- transitions ------------------------------------------------------------

    def degrade(self, sources: set[str], step: int) -> None:
        """Drop ``sources`` from planning and log the decision."""
        recovery = self.recovery
        fresh = [source for source in sources if source not in self.dark]
        for source in fresh:
            self.dark[source] = step
        if not fresh or recovery is None:
            return
        planner: Planner = recovery.planner_handle.instance()
        planner.set_excluded_sources(set(self.dark))
        for source in fresh:
            self.overlap.record_fleet_event(
                "degrade",
                step,
                recovery.system.clock.now_s,
                source,
                detail="all loaders unreachable; mixture renormalized",
            )

    def maybe_restore(self, step: int) -> list[str]:
        """Re-admit dark sources whose loaders answer heartbeats again.

        :meth:`FleetRecovery.revive_source` rewinds a returning source's
        loaders to the delivered prefix before they rejoin the gather set.
        """
        recovery = self.recovery
        if recovery is None or not self.dark:
            return []
        restored = [
            source for source in sorted(self.dark) if recovery.revive_source(source, step)
        ]
        for source in restored:
            del self.dark[source]
            self.overlap.record_fleet_event(
                "restore",
                step,
                recovery.system.clock.now_s,
                source,
                detail="loaders healthy; quota catch-up begins",
            )
        if restored:
            planner: Planner = recovery.planner_handle.instance()
            planner.set_excluded_sources(set(self.dark))
        return restored

    # -- accounting -------------------------------------------------------------

    def observe_plan(self, plan: LoadingPlan) -> None:
        """Fold one generated plan into the deficit ledger.

        Only runs while the controller is active: in steady healthy state
        the nominal expectation and the actual allocation can legitimately
        differ (thin buffers cap quotas) and must not accrue phantom debt.
        """
        if not self.active:
            self._step_deltas.pop(plan.step, None)
            return
        if plan.step in self._step_deltas:
            # The same step re-planned without an explicit invalidate —
            # replace its contribution instead of double-counting.
            self.invalidate_from(plan.step)
        base = self.base.weights_at(plan.step)
        expected = expected_quotas(base, self.target)
        delta: dict[str, int] = {}
        for name in self.source_names:
            diff = expected.get(name, 0) - len(plan.source_demands.get(name, ()))
            if diff:
                delta[name] = diff
        self._step_deltas[plan.step] = delta
        for name, diff in delta.items():
            self.deficits[name] += diff
        floor = plan.step - 256
        for stale in [s for s in self._step_deltas if s < floor]:
            del self._step_deltas[stale]

    def invalidate_from(self, step: int) -> None:
        """Rewind observations for steps ``>= step`` (pipeline flush/re-plan)."""
        for observed in sorted(s for s in self._step_deltas if s >= step):
            for name, diff in self._step_deltas[observed].items():
                self.deficits[name] -= diff
            del self._step_deltas[observed]
        self.schedule.invalidate_weights_from(step)

    def bounding_quotas(self, step: int, buffer_infos: SampleColumns) -> dict[str, int] | None:
        """Per-source quotas the batch bound applies while a controller exists.

        The default proportional bound subsamples the pool by buffer size,
        whose remainder rounding does not agree with the mix primitive's
        largest-remainder quota — the mismatch silently drops samples (the
        mix's extra lands on a source the bound capped) and clips the
        catch-up schedule's over-weighted quota for an owed source.  Whenever
        a controller is installed, bound each present source to exactly the
        integer quota the schedule asks for instead, so healthy steps deliver
        ``expected_quotas(base)`` — the controller's accounting unit — and
        catch-up transfers reproduce sample-exactly.  Jobs without a
        controller (``degraded_mode="strict"``) keep the proportional bound
        (and therefore byte-identical plans).
        """
        weights = self.schedule.weights_at(step)
        runs = buffer_infos.source_runs()
        present = {
            name: weight
            for name, weight in weights.items()
            if weight > 0 and name in runs and runs[name][2] > runs[name][1]
        }
        if not present:
            return None
        total = sum(present.values())
        normalized = {name: weight / total for name, weight in present.items()}
        return expected_quotas(normalized, self.target)


def ensure_sized_strategy(
    planner: Planner,
    job: TrainingJobSpec,
    catalog: SourceCatalog,
    degradation: DegradationController | None,
) -> None:
    """Install the default bounded sampling strategy if none is configured.

    The strategy operates over the full buffered metadata; to keep the
    global batch size fixed a mixture-less planner gets one that samples the
    per-step budget uniformly from the buffered pool via the DGraph mix
    primitive (the controller's catch-up schedule in renormalize mode).
    Idempotent, so the step driver calls it before every plan — which also
    re-installs it on a restarted planner, whose factory rebuilt the
    deploy-time (unbounded) strategy.
    """
    if planner.mixture is not None:
        return
    source_names = catalog.names()
    planner.mixture = (
        degradation.schedule
        if degradation is not None
        else MixtureSchedule.uniform(source_names)
    )
    strategy = job.build_strategy(planner.mixture)
    sample_count = job.global_samples_per_step()

    def sized(buffer_infos, tree, step, seed=0):
        quotas = (
            degradation.bounding_quotas(step, buffer_infos)
            if degradation is not None
            else None
        )
        bounded = bound_buffer(buffer_infos, sample_count, step, quotas=quotas)
        return strategy(bounded, tree, step, seed)

    sized.__name__ = f"sized[{getattr(strategy, '__name__', 'strategy')}]"
    # Marks the auto-installed strategy: ``save_checkpoint`` must not
    # persist its mixture as if a user had installed it.
    sized.mixture_names = source_names
    planner.strategy = sized


def bound_buffer(
    buffer_infos: SampleColumns,
    sample_count: int,
    step: int,
    quotas: dict[str, int] | None = None,
) -> SampleColumns:
    """Deterministically subsample the gathered buffers to the step budget.

    Sources are visited in name order; each keeps the first ``share`` rows of
    its run rotated by a per-step offset.  The positions are computed from
    the source runs, so the bound costs one selection over the kept rows.
    Explicit ``quotas`` (degraded catch-up) replace the proportional
    share; a source whose buffer runs shorter than its quota hands the
    spare budget to the next sources.
    """
    total = len(buffer_infos)
    if total <= sample_count:
        return buffer_infos
    runs = buffer_infos.source_runs()
    kept: list[range] = []
    bounded_runs: list[tuple[int, int, int]] = []
    remaining = sample_count
    sources = sorted(runs)
    spare = 0
    for index, source in enumerate(sources):
        code, start, end = runs[source]
        size = end - start
        if quotas is not None:
            share = quotas.get(source, 0) + spare
            spare = max(0, share - size)
        else:
            share = max(1, round(sample_count * size / total))
            share = min(share, remaining - (len(sources) - index - 1)) if index < len(sources) - 1 else remaining
        share = max(0, min(share, size, remaining))
        offset = (step * 7) % max(1, size)
        head = range(start + offset, start + min(size, offset + share))
        kept += [head, range(start, start + share - len(head))]
        first = bounded_runs[-1][2] if bounded_runs else 0
        bounded_runs.append((code, first, first + share))
        remaining -= share
    positions = np.fromiter(chain.from_iterable(kept), dtype=np.intp)
    return buffer_infos.select(positions, runs=bounded_runs)
