"""Whole-run durability: delivery manifests, their audit, run checkpoints.

Everything here reads or writes the job's :class:`CheckpointStore`:
:class:`DeliveryManifests` is the exactly-once audit trail (one manifest per
delivered step, the one record the store keeps for every step of a run), and
the ``*_run_checkpoint`` functions are the payload half of
:meth:`MegaScaleData.save_checkpoint` / ``restore``.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.core.checkpoint import CheckpointStore
from repro.core.data_constructor import DataConstructor
from repro.core.planner import PLAN_NAMESPACE, Planner
from repro.core.plans import LoadingPlan
from repro.core.recovery import FleetRecovery
from repro.errors import ConfigurationError, PlanError, StorageError

#: Checkpoint-store namespace for whole-run control-plane checkpoints.
RUN_NAMESPACE = "run"

#: Checkpoint-store namespace for per-step delivered-batch manifests
#: (step, constructor, sample ids) — the exactly-once delivery audit trail.
MANIFEST_NAMESPACE = "delivery/manifests"


class DeliveryManifests:
    """Per-step delivered-batch manifests in the durable checkpoint store.

    Unlike plan records, manifests are never compacted: :meth:`audit` spans
    the whole run, and a manifest costs 8 bytes a delivered id.
    """

    def __init__(self, store: CheckpointStore) -> None:
        self.store = store
        #: Manifests awaiting durability (non-empty only while the checkpoint
        #: store is down); drained in order at later spills.
        self._backlog: list[tuple[int, dict]] = []

    def spill(
        self, step: int, plan: LoadingPlan, constructor_handles: list, ranks: list[int]
    ) -> None:
        """Persist the step's delivered-batch manifest to the checkpoint store.

        One entry per delivered step: which constructor consumed which sample
        ids (sorted, one ``array("q")`` per constructor: iterating it yields
        Python ints), and which ``ranks`` pulled slices.  Manifests survive a restore (they
        live in the same durable store as the run checkpoints), so
        :meth:`audit` can prove exactly-once delivery across a
        crash/recovery boundary instead of only within one process lifetime.
        """
        backbone = plan.module("backbone")
        buckets: dict[str, array] = {}
        for constructor_handle in constructor_handles:
            constructor: DataConstructor = constructor_handle.instance()
            offsets = backbone.bucket_offsets(constructor.bucket_index)
            ids = backbone.rows.sample_ids[offsets[0] : offsets[-1]]
            if len(ids):
                buckets[constructor_handle.name] = array("q", np.sort(ids).tobytes())
        # A store outage queues the manifest instead of failing the step;
        # ordered draining keeps the audit trail gap-free once it heals.
        self._backlog.append(
            (step, {"step": step, "buckets": buckets, "ranks": ranks})
        )
        while self._backlog:
            pending_step, payload = self._backlog[0]
            try:
                self.store.save(MANIFEST_NAMESPACE, pending_step, payload)
            except StorageError:
                break
            self._backlog.pop(0)

    def load(self, step: int) -> dict | None:
        """The persisted delivered-batch manifest for ``step`` (or None)."""
        return self.store.load(MANIFEST_NAMESPACE, step)

    def audit(self) -> dict:
        """Exactly-once delivery audit over every persisted manifest.

        Returns ``{"steps", "first_step", "last_step", "gaps",
        "duplicate_steps", "exactly_once"}``: ``gaps`` lists step numbers
        missing from the contiguous range (a delivered step whose manifest
        vanished), ``duplicate_steps`` lists steps where one sample id was
        assigned to more than one constructor (a within-step double
        delivery).  ``exactly_once`` is true when both lists are empty.
        """
        steps = self.store.steps(MANIFEST_NAMESPACE)
        duplicate_steps: list[int] = []
        for step in steps:
            manifest = self.store.load(MANIFEST_NAMESPACE, step) or {}
            ids = [i for bucket in manifest.get("buckets", {}).values() for i in bucket]
            if len(ids) != len(set(ids)):
                duplicate_steps.append(step)
        gaps = (
            sorted(set(range(steps[0], steps[-1] + 1)) - set(steps)) if steps else []
        )
        return {
            "steps": len(steps),
            "first_step": steps[0] if steps else None,
            "last_step": steps[-1] if steps else None,
            "gaps": gaps,
            "duplicate_steps": duplicate_steps,
            "exactly_once": not gaps and not duplicate_steps,
        }


def save_run_checkpoint(
    store: CheckpointStore, step: int, recovery: FleetRecovery, mixtures: list[tuple]
) -> None:
    """Write one ``run`` entry: the control plane as of consume position ``step``.

    Built from what the fault manager and the store already hold, so steps in
    flight beyond ``step`` are neither waited for nor disturbed: per canonical
    loader the newest differential checkpoint any member of its shard
    recorded below ``step`` (``None`` = pristine), the Planner's state cut to
    ``step``, the fleet topology (mirror counts, worker sizing) and the
    construction recipes of ``mixtures`` — ``(first step, schedule)`` runs,
    the first in effect at ``step``.  The plans between a loader's checkpoint
    and ``step``, which :func:`load_run_checkpoint` replays, are demand
    records in the durable ``planner/plans`` namespace or, after a store
    outage, in the Planner state's persist backlog.

    The store keeps the newest ``run`` entry only, the one
    :meth:`MegaScaleData.restore` reads: once the new entry is written, older
    ones are deleted (a store outage skips that until the next save), and the
    entry's replay base holds the replay floor down
    (:meth:`~repro.core.recovery.FleetRecovery.compact`), so the plan
    records it replays stay.  An entry whose replay would start below the
    floor could not be restored: it raises :class:`ConfigurationError`
    before anything is written or deleted.
    """
    planner: Planner = recovery.planner_handle.instance()
    loaders = {}
    for handle in recovery.loader_handles:
        group = recovery.fleet.group_for(handle.name)
        loaders[handle.name] = {
            "source": group.source,
            "shard_index": group.shard_index,
            "checkpoint": recovery.fault_manager.shard_checkpoint(
                (group.source, group.shard_index, group.shard_count), step - 1
            ),
        }
    recipes = [
        (first_step, mixture.descriptor() if mixture is not None else None)
        for first_step, mixture in mixtures
    ]
    payload = {
        "step": step,
        "planner": planner.state_dict(before_step=step),
        "loaders": loaders,
        "topology": recovery.fleet.topology(),
        "mixture": recipes[0][1],
        # Unflushed set_mixture() calls whose old-mixture plans were still in
        # flight at ``step``: restore re-installs each at its first step.
        "mixture_swaps": [recipe for recipe in recipes[1:] if recipe[1] is not None],
    }
    base = _replay_base(payload)
    if base + 1 < planner.replay_floor:
        raise ConfigurationError(
            f"whole-run checkpoint at step {step} would replay the plans after "
            f"step {base}, compacted below the replay floor {planner.replay_floor}"
        )
    store.save(RUN_NAMESPACE, step, payload)
    recovery.run_base = base
    try:
        store.delete_below(RUN_NAMESPACE, step)
    except StorageError:
        pass
    recovery.compact(step)


def _replay_base(payload: dict) -> int:
    """The step a restore from ``payload`` replays plans after: the oldest
    loader checkpoint it embeds (-1, genesis, for a pristine loader)."""
    return min(
        [payload["step"] - 1]
        + [
            entry["checkpoint"]["step"] if entry["checkpoint"] else -1
            for entry in payload["loaders"].values()
        ]
    )


def latest_run_checkpoint(store: CheckpointStore) -> dict:
    """The newest whole-run checkpoint payload in ``store``."""
    found = store.load_latest(RUN_NAMESPACE)
    if found is None:
        raise ConfigurationError(
            "checkpoint store holds no whole-run checkpoint; "
            "call save_checkpoint() on a deployed instance first"
        )
    return found[1]


def load_run_checkpoint(payload: dict, recovery: FleetRecovery) -> None:
    """Load ``payload`` into a fresh deployment: Planner, loaders, fleet shape.

    The Planner resumes at the saved position, and the plans a run that was
    killed (or simply ran on) after the save left in ``planner/plans`` beyond
    it — never delivered as far as this entry knows — are purged before
    anything is planned.  Every canonical loader adopts the checkpoint the
    entry embeds (its only durable copy) and goes through the resync a flush
    or a failover uses (:meth:`FleetRecovery.resync`: restore it, or reset when
    pristine, and replay the plan suffix up to the saved position); mirrors
    are respawned to the saved fleet shape by cloning the rebuilt canonicals.
    A prefix that cannot be rebuilt — no entry for a loader's shard, a plan of
    the suffix gone from store and Planner state — raises
    :class:`ConfigurationError`: restore never resumes from a guessed state.
    """
    planner: Planner = recovery.planner_handle.instance()
    step = payload["step"]
    planner.load_state_dict(payload["planner"])
    planner.truncate_history(step)
    # Match entries by the shard they describe, not by actor name: a
    # promoted mirror saves under its own name (``…/0m2``), which the
    # fresh deployment's canonical for that shard does not share.
    saved = {
        (entry["source"], entry["shard_index"]): entry["checkpoint"]
        for entry in payload["loaders"].values()
    }
    for handle in recovery.loader_handles:
        group = recovery.fleet.group_for(handle.name)
        if (group.source, group.shard_index) not in saved:
            raise ConfigurationError(
                f"whole-run checkpoint holds no entry for loader "
                f"{handle.name!r}; was it saved under a different job spec?"
            )
        checkpoint = saved[group.source, group.shard_index]
        if checkpoint is not None:
            recovery.fault_manager.adopt_loader_checkpoint(handle.name, checkpoint)
    replay_after = _replay_base(payload)
    # Compaction may have dropped records since the entry was saved (never
    # past its base): the floor is where the stored records start.
    stored = planner.checkpoint_store.steps(PLAN_NAMESPACE)[:1]
    planner.replay_floor = max([planner.replay_floor, *stored])
    recovery.run_base = replay_after
    try:
        suffix = [plan.step for plan in planner.plans_since(replay_after)]
    except PlanError as exc:
        raise ConfigurationError(
            f"whole-run checkpoint at step {step} cannot rebuild its loaders: {exc}"
        ) from exc
    if suffix != list(range(replay_after + 1, step)):
        raise ConfigurationError(
            f"whole-run checkpoint at step {step} needs the plans of steps "
            f"{replay_after + 1}..{step - 1} to rebuild its loaders; found {suffix}"
        )
    for handle in recovery.loader_handles:
        recovery.resync(handle, step, planner)
    for entry in payload["topology"]:
        recovery.fleet.resize_workers(entry["source"], entry["workers_per_actor"], step)
        for _ in range(entry["mirrors"]):
            recovery.fleet.spawn_member(entry["source"], step, planner)
