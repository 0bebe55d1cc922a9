"""Golden digests: what the retired object/row data path proved, as pinned values.

Until it was deleted, an object/row twin of the data path (per-sample staged
objects, full-buffer metadata gathers, a row-mode DGraph) ran beside the
columnar one and every equivalence test compared the two live.  The digests
below were recorded from that twin at the last commit that had it
(``a95f6d8``), where the twin, the columnar path and these values all agreed.
They pin byte-exactly (tolerance: none) what the one remaining path must keep
emitting:

- **plan bytes** — every ``DGraphPlan`` the strategies finalize, in call
  order: source demands, per bin ``(bucket, microbatch, sample ids,
  estimated_cost)``, ``api_costs``, mixture weights, fetching ranks, and the
  encoder subplan;
- **delivery bytes** — per delivered step the backbone sample ids per
  ``(bucket, microbatch)`` and every ``RankDelivery`` slice ``(step, rank,
  microbatch, token count, payload bytes, metadata_only, replicated_from)``;
- **pinned DGraph draws** — ``_plan_signature`` of fixed draws from the input
  space of ``test_columns_and_lists_emit_identical_plans``, recorded from
  list-input (row-mode) graphs.  Draws 3-5 and 9-11 once asked for
  ``interleave``.  Draws 4, 5, 10 and 11 were re-recorded with greedy at
  ``a3e7b46``, the last commit whose strategies took a balance method;
  draws 3 and 9 are vanilla, never balanced, and kept their digests.

A second twin went the same way: until ``34f2e2c`` a synchronous step driver
in ``core/framework.py`` served ``prefetch_depth=0`` beside ``StepPipeline``.
Recorded from it at that commit, for what :class:`StepPipeline`'s inline
(depth-0) case must keep emitting:

- **depth-0 timing model** — per delivered step the modelled fetch latency,
  the computed stall, hidden time, loader wall-clock / transform time,
  collation time, the plan's total latency and the trainer's virtual clock;
- **depth-0 fault cell** — a canonical loader killed before step 3: the
  ``RecoveryEvent`` kinds and the delivered bytes.

The same timing digest is pinned for the ``prefetch_depth=2`` cells, where
the values come from the event engine's co-simulation rather than the inline
computation.
"""

from __future__ import annotations

import hashlib
import random
import struct
import zlib
from dataclasses import astuple, replace
from unittest import mock

import pytest

from repro.core.columns import SampleColumns
from repro.core.dgraph import DGraph
from repro.core.framework import MegaScaleData, TrainingJobSpec
from repro.core.place_tree import ClientPlaceTree
from repro.core.strategies import StrategyConfig, make_strategy
from repro.data.mixture import MixtureSchedule
from repro.data.samples import Modality
from repro.data.synthetic import (
    ROWS_PER_GROUP,
    build_source_catalog,
    coyo700m_like_spec,
    navit_like_spec,
)
from repro.parallelism.mesh import DeviceMesh
from repro.storage.filesystem import SimulatedFileSystem
from conftest import bucket_samples, gathered_columns
from test_core_planner import _plan_signature, _random_buffer_infos

STEPS = 6
# The mixture swap (with pipeline flush) comes before the scale-up: flushing
# while a freshly spawned mirror is alive fails on the text job at depth 2
# (a defect that predates these pins and is not theirs to cover).
SWAP_MIXTURE_AT = 2
SCALE_AT = 4


def _feed(digest, value) -> None:
    """Canonical, order-preserving byte encoding of plan/delivery values."""
    if value is None:
        digest.update(b"n")
    elif isinstance(value, float):
        digest.update(b"f" + struct.pack("<d", value))
    elif isinstance(value, (bool, int)):
        digest.update(b"i%d;" % int(value))
    elif isinstance(value, str):
        encoded = value.encode()
        digest.update(b"s%d:" % len(encoded) + encoded)
    elif isinstance(value, dict):
        digest.update(b"{")
        for key, item in value.items():
            _feed(digest, key)
            _feed(digest, item)
        digest.update(b"}")
    elif isinstance(value, (list, tuple)):
        digest.update(b"[")
        for item in value:
            _feed(digest, item)
        digest.update(b"]")
    else:
        raise TypeError(f"no canonical encoding for {type(value).__name__}")


# -- end-to-end matrix ------------------------------------------------------------

JOBS = {
    "vlm_hybrid": TrainingJobSpec.vlm_example,
    "text_backbone": TrainingJobSpec.text_example,
}

MATRIX = [
    (job_name, depth, seed)
    for job_name in JOBS
    for depth in (0, 2)
    for seed in (0, 1)
]


def matrix_job(job_name: str, depth: int, seed: int) -> TrainingJobSpec:
    return replace(JOBS[job_name](), prefetch_depth=depth, seed=seed)


def _feed_deliveries(digest, result) -> None:
    _feed(digest, result.step)
    _feed(
        digest,
        [
            [bin_.sample_ids.tolist() for bin_ in bucket]
            for bucket in bucket_samples(result.plan.module("backbone"))
        ],
    )
    for rank in sorted(result.deliveries):
        for piece in result.deliveries[rank].slices:
            _feed(
                digest,
                (
                    result.step,
                    rank,
                    piece.microbatch_index,
                    piece.token_count,
                    piece.payload_bytes,
                    piece.metadata_only,
                    piece.replicated_from,
                ),
            )


def _feed_timing(digest, system, result) -> None:
    _feed(
        digest,
        (
            result.step,
            result.data_fetch_latency_s,
            result.data_stall_s,
            result.hidden_fetch_s,
            result.loader_wall_clock_s,
            result.loader_transform_s,
            result.constructor_collate_s,
            result.plan_timings.total_s,
            system.virtual_time_s(),
        ),
    )


def run_cell(job: TrainingJobSpec) -> tuple[str, str, str]:
    """Drive one matrix cell; returns ``(plan, delivery, timing)`` digests."""
    plans = hashlib.sha256()
    deliveries = hashlib.sha256()
    timing = hashlib.sha256()
    finalize = DGraph.plan

    def recording_plan(dgraph):
        plan = finalize(dgraph)
        _feed(plans, _plan_signature(plan))
        _feed(plans, plan.module.num_microbatches)
        return plan

    with mock.patch.object(DGraph, "plan", recording_plan):
        system = MegaScaleData.deploy(job)
        try:
            names = system.catalog.names()
            for step in range(STEPS):
                if step == SWAP_MIXTURE_AT:
                    skewed = {name: 1.0 + index for index, name in enumerate(names)}
                    system.set_mixture(
                        MixtureSchedule.static(skewed), flush_pending=True
                    )
                if step == SCALE_AT:
                    system.scale_source(names[0], 2)
                result = system.run_step(simulate=True)
                _feed_deliveries(deliveries, result)
                _feed_timing(timing, system, result)
        finally:
            system.shutdown()
    return plans.hexdigest(), deliveries.hexdigest(), timing.hexdigest()


#: ``(job, prefetch_depth, seed) -> (plan digest, delivery digest)``.
GOLDEN_MATRIX: dict[tuple[str, int, int], tuple[str, str]] = {
    ("vlm_hybrid", 0, 0): (
        "ea902c3b469028fd1908711a7b8879a73657813759a0e5cc53841f8dfa5e0e5a",
        "9ffd20a0f35e6a7bcc18f4aff7ff295defa5857b600f9392d13f5fdaa53d1a7c",
    ),
    ("vlm_hybrid", 0, 1): (
        "3da71bdd39710285ee74077f71c233bff3cc530506df11fcb3b874f52744fc44",
        "7e83d87beab06018ab3e0b213e09033f0a40330429098405152c31cc218c2f95",
    ),
    ("vlm_hybrid", 2, 0): (
        "e69e73251ebb81b05141bcb615eea66960eb302b701d0c35e0e6f40aaff31988",
        "9ffd20a0f35e6a7bcc18f4aff7ff295defa5857b600f9392d13f5fdaa53d1a7c",
    ),
    ("vlm_hybrid", 2, 1): (
        "91f62a5cfe1425b6f5e5690a3a20e49e4459171e455823c9b12792b1e3addb31",
        "7e83d87beab06018ab3e0b213e09033f0a40330429098405152c31cc218c2f95",
    ),
    ("text_backbone", 0, 0): (
        "ab610850f60d60a3d91283c45437602fce2296fa8807e5d027e87d71bfb32b53",
        "b023c75fa82c94dbaada16e06be02e993dfe9f2edc84e2931d6a982ba15e8df4",
    ),
    ("text_backbone", 0, 1): (
        "b45573636055abc9ff84944c225f40d10728500491cfc45e6600380e0165cb01",
        "9da6820fab373c3609dc45533d4168ed30cd1a6b5ba0900ebe562726092d0183",
    ),
    ("text_backbone", 2, 0): (
        "b9f8c5a380fd17c4c2e02461d2a6a26608b2bbcd17ae20a6f7ad25f35ddd432a",
        "b023c75fa82c94dbaada16e06be02e993dfe9f2edc84e2931d6a982ba15e8df4",
    ),
    ("text_backbone", 2, 1): (
        "5832d231e30a27ff2b78dd0dba5d2c8f16259a2a8d3ab732e31b552a4feac9ef",
        "9da6820fab373c3609dc45533d4168ed30cd1a6b5ba0900ebe562726092d0183",
    ),
}


@pytest.mark.parametrize("job_name,depth,seed", MATRIX)
def test_matrix_cell_matches_recorded_digests(job_name, depth, seed):
    assert run_cell(matrix_job(job_name, depth, seed))[:2] == GOLDEN_MATRIX[
        (job_name, depth, seed)
    ]


def test_prefetch_depth_does_not_change_the_bytes():
    """Inline (depth 0) and deferred (depth 2) issue deliver the same run."""
    for job_name in JOBS:
        for seed in (0, 1):
            assert GOLDEN_MATRIX[(job_name, 0, seed)][1] == GOLDEN_MATRIX[
                (job_name, 2, seed)
            ][1]


# -- timing model (depth 0 and 2) and depth-0 fault cell --------------------------

#: ``(job, prefetch_depth, seed) -> timing digest``.  The depth-2 cells pin
#: the co-simulated (event-engine) timing model, which must not depend on
#: how many events a pipeline round runs.
GOLDEN_TIMING: dict[tuple[str, int, int], str] = {
    ("vlm_hybrid", 0, 0): "30af09187e37b5c53b219561803de9faa714169afca2e03bbb7ff8651f933b08",
    ("vlm_hybrid", 0, 1): "fcc7385b91e2bc5d4402a3c5f17c851548ee2b6d8e5f3cad5c590f1f100eb65c",
    ("text_backbone", 0, 0): "31d47447ec06b09bad9993e5b5e2e60783108904d5f21fac07c99a73c07a1f73",
    ("text_backbone", 0, 1): "51ab8cc25984bd4f74bd169739e03b803fee23f5c93519c76c0a02ccc7ad7bb8",
    ("vlm_hybrid", 2, 0): "f0bffeecbfb1536a6c54f216de665fe6866800729a1acdbc9b9d71e958a5d4da",
    ("vlm_hybrid", 2, 1): "aae65f33df948ebc8a3baac66466acd4e0a1b15d1cbf471c7127a982c43eacc5",
    ("text_backbone", 2, 0): "bcc9bc2c0c6ea8be6ea5dcc9072e447607ac30edf345651d16dab4898d6a3727",
    ("text_backbone", 2, 1): "ff9bb71ae2b6bcdadad072d82c4e4411cd56be96a6986fd374d45028a80d3e06",
}


TIMING_CELLS = sorted({(job_name, seed) for job_name, _, seed in GOLDEN_TIMING})


@pytest.mark.parametrize("job_name,seed", TIMING_CELLS)
def test_depth_zero_timing_model_matches_recorded_digest(job_name, seed):
    assert run_cell(matrix_job(job_name, 0, seed))[2] == GOLDEN_TIMING[(job_name, 0, seed)]


@pytest.mark.parametrize("job_name,seed", TIMING_CELLS)
def test_depth_two_timing_model_matches_recorded_digest(job_name, seed):
    assert run_cell(matrix_job(job_name, 2, seed))[2] == GOLDEN_TIMING[(job_name, 2, seed)]


KILL_LOADER_BEFORE = 3


def run_fault_cell() -> tuple[list[str], str]:
    """Depth 0, first canonical loader killed before step 3; returns
    ``(RecoveryEvent kinds, delivery digest)``."""
    deliveries = hashlib.sha256()
    system = MegaScaleData.deploy(matrix_job("text_backbone", 0, 0))
    try:
        for step in range(STEPS):
            if step == KILL_LOADER_BEFORE:
                system.system.kill_actor(system.loader_handles[0].name)
            _feed_deliveries(deliveries, system.run_step())
        kinds = [event.kind for event in system.fault_manager.events()]
    finally:
        system.shutdown()
    return kinds, deliveries.hexdigest()


GOLDEN_FAULT_CELL: tuple[list[str], str] = (
    ["restart"],
    "0df614b3cc96d8915708a68c42aa4e19084d495e78301fcf39c146ade5a8b3c2",
)


def test_depth_zero_fault_cell_matches_recording():
    assert run_fault_cell() == GOLDEN_FAULT_CELL


# -- churn cell: what the flushing save proved ------------------------------------

CHURN_CYCLE = 10
CHURN_CYCLES = 2


def run_churn_cell() -> tuple[str, list[int]]:
    """Depth 2, two cycles of mixture swap (with flush), scale-up, loader
    kill, scale-down and save, then shutdown + restore + one step; returns
    ``(delivery digest, crc32 of each delivered step's sample ids)``."""
    job = replace(
        matrix_job("text_backbone", 2, 0),
        checkpoint_backend="sqlite", replay_window=4, enable_autoscaler=True,
    )
    deliveries = hashlib.sha256()
    sample_ids: list[int] = []

    def deliver(system) -> None:
        result = system.run_step(simulate=True)
        _feed_deliveries(deliveries, result)
        ids = [
            sample_id
            for bucket in bucket_samples(result.plan.module("backbone"))
            for bin_ in bucket
            for sample_id in bin_.sample_ids.tolist()
        ]
        sample_ids.append(zlib.crc32(repr((result.step, ids)).encode()))

    system = MegaScaleData.deploy(job)
    store = system.checkpoint_store
    try:
        names = system.catalog.names()
        for index in range(CHURN_CYCLE * CHURN_CYCLES):
            cycle, offset = divmod(index, CHURN_CYCLE)
            hot = names[cycle % len(names)]
            if offset == 2:
                weights = {name: 1.0 for name in names}
                weights[hot] = float(len(names))
                system.set_mixture(MixtureSchedule.static(weights), flush_pending=True)
            elif offset == 4:
                system.scale_source(hot, 2)
            elif offset == 6:
                # A mirror-less canonical: restart + bounded replay, never a
                # hot-standby promotion.
                victim = next(
                    handle for handle in system.loader_handles
                    if len(system.fleet.group_for(handle.name).members) == 1
                )
                system.system.failures.fail(victim.name)
            elif offset == 7:
                system.scale_source(hot, 1)
            elif offset == 9:
                system.save_checkpoint()
            deliver(system)
        system.shutdown()
        system = MegaScaleData.restore(job, store)
        deliver(system)
    finally:
        system.shutdown()
    return deliveries.hexdigest(), sample_ids


#: Recorded at ``14828e5``, where ``save_checkpoint()`` still flushed the
#: pipeline and restored from live snapshots: the non-flushing save and the
#: replaying restore must deliver exactly these steps (the last entry is the
#: saved step, re-delivered after ``restore``).
GOLDEN_CHURN_CELL: tuple[str, list[int]] = (
    "c40fd971dfb7be86bdf1aae4d15911134d1a7e78030d2f9ed04f57d496bdb2b1",
    [
        2192632915, 1195496019, 218482903, 1866026640, 3165276729, 905968177, 330289277,
        3595476183, 3497347900, 3697390174, 3292863431, 2368101409, 658312585, 4092911547,
        4096125298, 1515357242, 2630685804, 1844401809, 3408041466, 164240557, 164240557,
    ],
)


def test_churn_cell_with_saves_matches_flushing_recording():
    digest, sample_ids = run_churn_cell()
    assert sample_ids == GOLDEN_CHURN_CELL[1]
    assert digest == GOLDEN_CHURN_CELL[0]
    # The step re-run after restore is the one delivered right after the save.
    assert sample_ids[-1] == sample_ids[-2]


# -- pinned DGraph draws ----------------------------------------------------------

NUM_DRAWS = 12


def pinned_draw(index: int):
    """One fixed point of ``test_columns_and_lists_emit_identical_plans``'s
    input space (``random.Random`` streams are stable across versions)."""
    rng = random.Random(9000 + index)
    spec = [
        [
            (rng.randint(1, 4096), rng.choice([0, 0, rng.randint(1, 2048)]))
            for _ in range(rng.randint(1, 24))
        ]
        for _ in range(rng.randint(1, 5))
    ]
    return {
        "spec": spec,
        "step": rng.randint(0, 50),
        "seed": rng.randint(0, 10),
        "strategy_name": ["vanilla", "backbone_balance", "hybrid"][index % 3],
        "sample_count": rng.choice([None, rng.randint(1, 40)]),
        "weight_seed": rng.randint(0, 5),
    }


def draw_digest(index: int, as_columns: bool) -> str:
    draw = pinned_draw(index)
    buffer_infos = _random_buffer_infos(draw["spec"])
    weights = {
        source: (zlib.crc32(f"{source}:{draw['weight_seed']}".encode()) % 7) / 7.0
        for source in buffer_infos
    }
    if all(weight == 0.0 for weight in weights.values()):
        weights[next(iter(weights))] = 1.0
    config = StrategyConfig(
        mixture=MixtureSchedule.static(weights),
        sample_count=draw["sample_count"],
        num_microbatches=2,
    )
    if as_columns:
        rows = gathered_columns(buffer_infos)
    else:
        rows = SampleColumns.from_samples([m for samples in buffer_infos.values() for m in samples])
    tree = ClientPlaceTree(DeviceMesh(pp=1, dp=2, cp=1, tp=2, gpus_per_node=8))
    plan = make_strategy(draw["strategy_name"], config)(
        rows, tree, draw["step"], draw["seed"]
    )
    digest = hashlib.sha256()
    _feed(digest, _plan_signature(plan))
    return digest.hexdigest()


GOLDEN_DRAWS: list[str] = [
    "1bdcd9ebab9180cb66cf8032c0477976228b6717ee2e21e6532953e63c0ccfb4",
    "3626b05b1fccf9b9c997c340a823161ab19bdf77a97006514112d822b9b83465",
    "5eb8442bbcfcaeaf30fbc8b9860dcb01188da6ea382d3de1d7f0e8dd93e93585",
    "ee5a8aacab117ad616c662a88f6ab4944316697983ee93fc337bd3cc0de22234",
    "4a5ee035f44ad6c34d50dd2adfa22ecc16270e19ad652d2954c5ab880542d44e",
    "836991c316369e052fb0b69fc21ac91252d5b9e7dce4c13804ae00b7ae8ef82c",
    "90ca441778eaddab4b7253dc9a18946418b857a3b09a1e60c30353ff9015b914",
    "0469ee221ee3ae1c62e660703a230dc8189b321aefd2537a47ebb5b38d96a285",
    "b30fe7bc24d688c8fd6100bd60a8bc34cf7426765d36916442fefd797d3a886d",
    "fc21f533d0b9eb9bab2a47ac983e7648b748b0efe27ae318e1a76a06948e85b2",
    "9087513c1b533a6729874fc5714b385145a310f4d4672afb2b540c6877b3ef66",
    "1cc9489d15632c5f3fb9b7c27e7705c46bc46e6e8937a9206e4dee0623568318",
]


@pytest.mark.parametrize("index", range(NUM_DRAWS))
@pytest.mark.parametrize("as_columns", [False, True], ids=["lists", "columns"])
def test_pinned_draw_matches_recorded_digest(index, as_columns):
    assert draw_digest(index, as_columns) == GOLDEN_DRAWS[index]


# -- source catalog: what the row-record writer built -----------------------------

CATALOG_SPECS = {
    "navit_data": lambda: navit_like_spec(num_sources=16, samples_per_source=1100, seed=0),
    "coyo700m": coyo700m_like_spec,
}


def catalog_digest(spec) -> tuple[str, set[Modality], set[int]]:
    """Build ``spec``'s catalog; returns ``(digest, modalities, last-group row
    counts)``.  The digest covers every ``DataSource`` field, per file the
    stored size, footer bytes and row count, and per row group its extent,
    ``compressed_bytes`` and each column's name, dtype and bytes."""
    filesystem = SimulatedFileSystem()
    catalog = build_source_catalog(spec, filesystem)
    digest = hashlib.sha256()
    last_counts = set()
    for source in catalog:
        _feed(digest, astuple(source))
        for path in source.paths:
            file = filesystem.read(path)
            _feed(digest, (filesystem.stat(path).size_bytes, file.footer_bytes, file.total_rows))
            for group in file.row_groups:
                _feed(digest, (group.row_start, group.row_count, group.compressed_bytes))
                for name, values in group.columns.items():
                    _feed(digest, (name, values.dtype.str))
                    digest.update(values.tobytes())
            last_counts.add(file.row_groups[-1].row_count)
    return digest.hexdigest(), {source.modality for source in catalog}, last_counts


#: Recorded at ``e4c70f0``, the last commit whose writer took per-row record
#: dicts: the column-mapping writer must build the same catalogs, byte for byte.
GOLDEN_CATALOGS: dict[str, str] = {
    "navit_data": "15379cf14c0198a89da0ce535b39e4a09c96225c10a99845a53046c6e35ffa22",
    "coyo700m": "5abe26c1cbd523988639ed6534d4fb076481c12b8a8123f49786c40c6e1a79fb",
}


def test_catalogs_match_the_record_writer_recording():
    modalities, last_counts = set(), set()
    for group, make_spec in CATALOG_SPECS.items():
        digest, group_modalities, group_last_counts = catalog_digest(make_spec())
        assert digest == GOLDEN_CATALOGS[group], group
        modalities |= group_modalities
        last_counts |= group_last_counts
    # The pin covers every modality's formulas and a partial last row group.
    assert modalities == set(Modality)
    assert any(count < ROWS_PER_GROUP for count in last_counts)
