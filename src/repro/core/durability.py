"""Whole-run durability: delivery manifests, their audit, run checkpoints.

Everything here reads or writes the job's :class:`CheckpointStore`:
:class:`DeliveryManifests` is the exactly-once audit trail (one manifest per
delivered step), and the ``*_run_checkpoint`` / ``restore_*`` functions are
the payload half of :meth:`MegaScaleData.save_checkpoint` / ``restore``.
"""

from __future__ import annotations

from repro.core.checkpoint import CheckpointStore
from repro.core.data_constructor import DataConstructor
from repro.core.loader_fleet import LoaderFleet
from repro.core.planner import Planner
from repro.core.plans import LoadingPlan
from repro.core.source_loader import SourceLoader
from repro.errors import ConfigurationError, StorageError

#: Checkpoint-store namespace for whole-run control-plane checkpoints.
RUN_NAMESPACE = "run"

#: Checkpoint-store namespace for per-step delivered-batch manifests
#: (step, constructor, sample ids) — the exactly-once delivery audit trail.
MANIFEST_NAMESPACE = "delivery/manifests"


class DeliveryManifests:
    """Per-step delivered-batch manifests in the durable checkpoint store."""

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
        ids, and which ``ranks`` pulled slices.  Manifests survive a restore (they
        live in the same durable store as the run checkpoints), so
        :meth:`audit` can prove exactly-once delivery across a
        crash/recovery boundary instead of only within one process lifetime.
        """
        backbone = plan.module("backbone")
        buckets: dict[str, list[int]] = {}
        for constructor_handle in constructor_handles:
            constructor: DataConstructor = constructor_handle.instance()
            ids: list[int] = []
            for assignment in backbone.bucket_assignments(constructor.bucket_index):
                ids.extend(assignment.sample_ids())
            if ids:
                buckets[constructor_handle.name] = sorted(ids)
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
    store: CheckpointStore, step: int, planner: Planner, loader_handles: list, fleet: LoaderFleet
) -> None:
    """Write one ``run`` entry: the control plane as of consume position ``step``.

    Holds the Planner position, every canonical loader's replay snapshot
    (buffer + cursor), the fleet topology (mirror counts, worker sizing) and
    the active mixture's construction recipe when it has one.
    """
    # Persist the mixture only when it is user-installed: the sizing
    # mixture ensure_sized_strategy auto-installs (recognizable by its
    # sized-strategy wrapper) is rebuilt identically on redeploy, and
    # restoring it through set_mixture would replace the sized strategy
    # with an unbounded one.
    auto_sized = getattr(planner.strategy, "mixture_names", None) is not None
    mixture = None if auto_sized else planner.mixture
    payload = {
        "step": step,
        "planner": planner.state_dict(),
        "loaders": {
            handle.name: handle.instance().replay_checkpoint()
            for handle in loader_handles
        },
        "topology": fleet.topology(),
        "mixture": mixture.descriptor() if mixture is not None else None,
    }
    store.save(RUN_NAMESPACE, step, payload)


def latest_run_checkpoint(store: CheckpointStore) -> dict:
    """The newest whole-run checkpoint payload in ``store``."""
    found = store.load_latest(RUN_NAMESPACE)
    if found is None:
        raise ConfigurationError(
            "checkpoint store holds no whole-run checkpoint; "
            "call save_checkpoint() on a deployed instance first"
        )
    return found[1]


def load_run_checkpoint(
    payload: dict, loader_handles: list, planner: Planner, fleet: LoaderFleet
) -> None:
    """Load ``payload`` into a fresh deployment: loaders, Planner, fleet shape.

    The canonical loaders restore the checkpointed replay snapshots (fresh
    delta epochs force a full planner-gather resync), the Planner resumes at
    the saved position and mirrors are respawned to the saved fleet shape by
    cloning the already-restored canonicals.
    """
    # Match snapshots by the shard they describe, not by actor name: a
    # promoted mirror saves under its own name (``…/0m2``), which the
    # fresh deployment's canonical for that shard does not share.
    snapshots = {
        (snapshot["source"], snapshot["shard_index"]): snapshot
        for snapshot in payload["loaders"].values()
    }
    for handle in loader_handles:
        loader: SourceLoader = handle.instance()
        snapshot = snapshots.get((loader.source.name, loader.shard_index))
        if snapshot is None:
            raise ConfigurationError(
                f"whole-run checkpoint holds no snapshot for loader "
                f"{handle.name!r}; was it saved under a different job spec?"
            )
        loader.restore_replay_checkpoint(snapshot, restore_stats=True)
    planner.load_state_dict(payload["planner"])
    step = payload["step"]
    for entry in payload["topology"]:
        fleet.resize_workers(entry["source"], entry["workers_per_actor"], step)
        for _ in range(entry["mirrors"]):
            fleet.spawn_member(entry["source"], step, planner)
