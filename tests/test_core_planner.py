"""Unit tests for the Planner actor."""

from __future__ import annotations

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.actors.runtime import ActorSystem, ClusterSpec
from repro.core.autoscaler import MixtureDrivenScaler, ResourceBudget, SourceAutoPartitioner
from repro.core.columns import SampleColumns
from repro.core.dgraph import DGraph, metas_image, metas_token
from repro.core.degradation import bound_buffer
from repro.core.framework import MegaScaleData, TrainingJobSpec
from repro.core.place_tree import ClientPlaceTree
from repro.core.fault_tolerance import FaultToleranceManager
from repro.core.planner import (
    GATHER_PER_DELTA_SECONDS,
    GATHER_PER_SAMPLE_SECONDS,
    GATHER_RPC_SECONDS,
    PlanTimings,
    Planner,
)
from repro.core.source_loader import SourceLoader
from repro.core.strategies import (
    StrategyConfig,
    _image_cost,
    backbone_balance_strategy,
    hybrid_vlm_strategy,
    make_strategy,
    vanilla_strategy,
)
from repro.data.synthetic import build_source_catalog, navit_like_spec
from repro.storage.filesystem import SimulatedFileSystem
from repro.data.mixture import MixturePhase, MixtureSchedule
from repro.data.samples import Modality, SampleMetadata
from repro.data.sources import SourceCursor
from repro.errors import PlanError
from repro.parallelism.mesh import DeviceMesh
from repro.utils.units import GIB
from conftest import bucket_samples, buffered_ids, gathered_columns, plan_bins


@pytest.fixture()
def system():
    return ActorSystem(ClusterSpec(accelerator_nodes=1, cpu_pods=1))


@pytest.fixture()
def loader_handles(system, small_catalog, filesystem):
    handles = []
    for index, source in enumerate(small_catalog.sources()[:4]):
        handles.append(
            system.create_actor(
                lambda src=source: SourceLoader(src, filesystem, buffer_size=16),
                name=f"loader-{index}",
                memory_bytes=GIB,
            )
        )
    return handles


def make_planner(system, tree, loader_handles, mixture=None, scaler=None, **kwargs):
    handle = system.create_actor(
        lambda: Planner(
            strategy=backbone_balance_strategy(StrategyConfig(mixture=mixture, num_microbatches=2)),
            tree=tree,
            mixture=mixture,
            scaler=scaler,
            gcs=system.gcs,
            **kwargs,
        ),
        name=f"planner-{len(system.list_actor_names())}",
        memory_bytes=GIB,
    )
    handle.instance().register_loaders(loader_handles)
    return handle


class TestPlanning:
    def test_generate_plan_demands_buffered_samples(self, system, dp_mesh, loader_handles):
        tree = ClientPlaceTree(dp_mesh)
        planner = make_planner(system, tree, loader_handles)
        plan = planner.call("generate_plan")
        assert plan.step == 0
        assert plan.total_samples() == 4 * 16
        assert set(plan.source_demands) == {
            handle.instance().source.name for handle in loader_handles
        }

    def test_planner_requires_loaders(self, system, dp_mesh):
        tree = ClientPlaceTree(dp_mesh)
        handle = system.create_actor(
            lambda: Planner(
                strategy=backbone_balance_strategy(StrategyConfig()), tree=tree
            ),
            name="lonely-planner",
        )
        with pytest.raises(PlanError):
            handle.call("generate_plan")

    def test_timings_recorded_per_step(self, system, dp_mesh, loader_handles):
        planner = make_planner(system, ClientPlaceTree(dp_mesh), loader_handles)
        stats = planner.instance().stats
        assert stats.latest_timings() == PlanTimings()
        planner.call("generate_plan")
        first = stats.latest_timings()
        planner.call("generate_plan")
        assert stats.plans_generated == 2
        timings = stats.latest_timings()
        assert timings is not first  # the second plan's, not kept beside the first
        assert timings.buffer_gather_s > 0
        assert timings.compute_plan_s > 0
        assert timings.broadcast_plan_s > 0
        assert timings.total_s == pytest.approx(
            timings.buffer_gather_s + timings.compute_plan_s + timings.broadcast_plan_s
        )

    def test_steps_advance_automatically(self, system, dp_mesh, loader_handles):
        planner = make_planner(system, ClientPlaceTree(dp_mesh), loader_handles)
        assert planner.call("generate_plan").step == 0
        assert planner.call("generate_plan").step == 1
        history = planner.instance().plan_history()
        assert [p.step for p in history] == [0, 1]

    def test_plan_history_starts_empty(self, system, dp_mesh, loader_handles):
        planner = make_planner(system, ClientPlaceTree(dp_mesh), loader_handles)
        assert planner.instance().plan_history() == []
        planner.call("generate_plan")
        assert planner.instance().plan_history()[-1].step == 0


class TestMixtureAndScaling:
    def test_mixture_weights_recorded(self, system, dp_mesh, loader_handles, small_catalog):
        names = [h.instance().source.name for h in loader_handles]
        mixture = MixtureSchedule.uniform(names)
        planner = make_planner(system, ClientPlaceTree(dp_mesh), loader_handles, mixture=mixture)
        plan = planner.call("generate_plan")
        assert set(plan.mixture_weights) == set(names)

    def test_scaling_plan_piggybacked_on_weight_shift(
        self, system, dp_mesh, loader_handles, small_catalog
    ):
        names = [h.instance().source.name for h in loader_handles]
        hot = names[0]
        mixture = MixtureSchedule.staged(
            [
                MixturePhase(0, {name: 1.0 for name in names}),
                MixturePhase(5, {hot: 0.97, **{n: 0.01 for n in names[1:]}}),
            ]
        )
        partition = SourceAutoPartitioner().partition(
            small_catalog, ResourceBudget(cpu_cores=64, memory_bytes=64 * GIB)
        )
        scaler = MixtureDrivenScaler(partition, consecutive_intervals=2, window=3)
        planner = make_planner(
            system, ClientPlaceTree(dp_mesh), loader_handles, mixture=mixture, scaler=scaler
        )
        scaling_seen = False
        for step in range(15):
            plan = planner.call("generate_plan", step)
            if plan.scaling is not None and any(
                directive.source == hot for directive in plan.scaling.directives
            ):
                scaling_seen = True
                break
        assert scaling_seen


class TestFaultTolerance:
    def test_checkpoints_written_to_gcs(self, system, dp_mesh, loader_handles):
        planner = make_planner(system, ClientPlaceTree(dp_mesh), loader_handles)
        planner.call("generate_plan")
        planner.call("generate_plan")
        # Only the position marker: plan history lives in the Planner and its
        # checkpoint store, so the GCS does not grow by a key per step.
        assert system.gcs.get("planner/last_step") == 1
        assert system.gcs.keys("planner/plan/") == []

    def test_replay_from_gcs_resumes_step(self, system, dp_mesh, loader_handles):
        planner = make_planner(system, ClientPlaceTree(dp_mesh), loader_handles)
        for _ in range(3):
            planner.call("generate_plan")
        fresh = Planner(
            strategy=backbone_balance_strategy(StrategyConfig()),
            tree=ClientPlaceTree(dp_mesh),
            gcs=system.gcs,
        )
        assert fresh.replay_from_gcs() == 3

    def test_replay_without_gcs_keeps_step(self, dp_mesh):
        planner = Planner(
            strategy=backbone_balance_strategy(StrategyConfig()), tree=ClientPlaceTree(dp_mesh)
        )
        assert planner.replay_from_gcs() == 0

    def test_state_dict_roundtrip(self, system, dp_mesh, loader_handles):
        planner = make_planner(system, ClientPlaceTree(dp_mesh), loader_handles)
        planner.call("generate_plan")
        state = planner.instance().state_dict()
        fresh = Planner(
            strategy=backbone_balance_strategy(StrategyConfig()), tree=ClientPlaceTree(dp_mesh)
        )
        fresh.load_state_dict(state)
        assert fresh.heartbeat_payload()["step"] == 1

    def test_gather_charges_a_resync_after_restarts(self, system, dp_mesh, loader_handles):
        """The first plan after a loader restart charges that loader per
        buffered sample, the others per change; the first plan after a
        Planner restart charges every loader per buffered sample."""
        planner = make_planner(system, ClientPlaceTree(dp_mesh), loader_handles)

        def charged(resynced, changes):
            expected = 0.0
            for handle in loader_handles:
                if handle.name in resynced:
                    depth = handle.instance().buffer_depth()
                    expected += GATHER_RPC_SECONDS + GATHER_PER_SAMPLE_SECONDS * depth
                else:
                    expected += GATHER_RPC_SECONDS + GATHER_PER_DELTA_SECONDS * changes.get(
                        handle.name, 0
                    )
            return expected

        def gathered():
            return planner.instance().stats.latest_timings().buffer_gather_s

        everyone = {handle.name for handle in loader_handles}
        planner.call("generate_plan")
        assert gathered() == charged(everyone, {})
        churned, restarted = loader_handles[0], loader_handles[1]
        ids = buffered_ids(churned.instance())[:3]
        before = churned.instance().stats.samples_buffered
        churned.call("prepare", ids)
        refilled = churned.instance().stats.samples_buffered - before
        system.restart_actor(restarted.name)
        planner.call("generate_plan")
        assert gathered() == charged({restarted.name}, {churned.name: len(ids) + refilled})
        planner.call("generate_plan")
        assert gathered() == charged(set(), {})
        FaultToleranceManager(system).recover_coordinator(planner, step=3)
        planner.instance().register_loaders(loader_handles)
        planner.call("generate_plan")
        assert gathered() == charged(everyone, {})


# -- columnar planning -------------------------------------------------------------


def _random_buffer_infos(draw_spec):
    """Build per-source metadata lists from a hypothesis-drawn spec."""
    buffer_infos: dict[str, list[SampleMetadata]] = {}
    sample_id = 0
    for source_index, rows in enumerate(draw_spec):
        source = f"src{source_index:02d}"
        samples = []
        for text, image in rows:
            samples.append(
                SampleMetadata(
                    sample_id=sample_id,
                    source=source,
                    modality=Modality.IMAGE if image else Modality.TEXT,
                    text_tokens=text,
                    image_tokens=image,
                )
            )
            sample_id += 1
        buffer_infos[source] = samples
    return buffer_infos


def _bounded_ids(buffer_infos, sample_count, step):
    """The ids ``bound_buffer`` keeps, computed on record lists: each source,
    in name order, keeps its proportional share of its rows rotated by a
    per-step offset."""
    total = sum(len(rows) for rows in buffer_infos.values())
    if total <= sample_count:
        return [m.sample_id for rows in buffer_infos.values() for m in rows]
    kept, remaining = [], sample_count
    sources = sorted(buffer_infos)
    for index, source in enumerate(sources):
        rows = buffer_infos[source]
        share = max(1, round(sample_count * len(rows) / total))
        if index < len(sources) - 1:
            share = min(share, remaining - (len(sources) - index - 1))
        else:
            share = remaining
        share = max(0, min(share, len(rows), remaining))
        offset = (step * 7) % max(1, len(rows))
        kept += [m.sample_id for m in (rows[offset:] + rows[:offset])[:share]]
        remaining -= share
    return kept


buffer_specs = st.lists(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=4096),
            st.integers(min_value=0, max_value=2048),
        ),
        min_size=1,
        max_size=24,
    ),
    min_size=1,
    max_size=5,
)


def _drawn_weights(sources, weight_seed):
    """A deterministic "random" mixture over the drawn sources (some of them
    possibly zero-weighted so whole pools drop out of the mix).  crc32, not
    hash(): PYTHONHASHSEED salting would make a falsifying example
    irreproducible in another process."""
    weights = {
        source: (zlib.crc32(f"{source}:{weight_seed}".encode()) % 7) / 7.0
        for source in sources
    }
    if all(weight == 0.0 for weight in weights.values()):
        weights[next(iter(weights))] = 1.0
    return weights


def _plan_signature(plan):
    """The byte-identity fields of a DGraphPlan/LoadingPlan module plan."""
    return (
        plan.source_demands,
        plan.mixture_weights,
        plan.fetching_ranks,
        plan.module.module,
        plan.module.axis,
        plan.module.num_buckets,
        plan.module.balance_method,
        plan_bins(plan.module),
        plan.api_costs,
        {name: _plan_signature(sub) for name, sub in plan.subplan.items()},
    )


class TestColumnarPlanEquivalence:
    """Rows grouped by source (the Planner's gather) and the same rows
    without source runs must yield byte-identical plans (pinned draws:
    ``test_golden_digests.py``)."""

    @given(
        spec=buffer_specs,
        step=st.integers(min_value=0, max_value=50),
        seed=st.integers(min_value=0, max_value=10),
        strategy_name=st.sampled_from(["vanilla", "backbone_balance", "hybrid"]),
        sample_count=st.one_of(st.none(), st.integers(min_value=1, max_value=40)),
        weight_seed=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_columns_and_lists_emit_identical_plans(
        self, spec, step, seed, strategy_name, sample_count, weight_seed
    ):
        buffer_infos = _random_buffer_infos(spec)
        config = StrategyConfig(
            mixture=MixtureSchedule.static(_drawn_weights(buffer_infos, weight_seed)),
            sample_count=sample_count,
            num_microbatches=2,
        )
        # The Planner's gather: one set, a run per source.
        grouped = gathered_columns(buffer_infos)
        flat = SampleColumns.from_samples([m for rows in buffer_infos.values() for m in rows])
        plans = [
            make_strategy(strategy_name, config)(
                rows, ClientPlaceTree(DeviceMesh(pp=1, dp=2, cp=1, tp=2, gpus_per_node=8)),
                step, seed,
            )
            for rows in (grouped, flat)
        ]
        assert _plan_signature(plans[0]) == _plan_signature(plans[1])

    @given(
        spec=buffer_specs,
        step=st.integers(min_value=0, max_value=50),
        seed=st.integers(min_value=0, max_value=10),
        mixed=st.booleans(),
        sample_count=st.one_of(st.none(), st.integers(min_value=1, max_value=40)),
        weight_seed=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_the_encoder_view_by_position_equals_the_view_by_id(
        self, spec, step, seed, mixed, sample_count, weight_seed
    ):
        """The hybrid strategy cuts the encoder's rows from the positions the
        backbone's mix chose.  On a gathered set (ids unique) that is the
        view ``np.isin`` over the selected ids gives, and the encoder plans
        built from the two views are identical."""
        columns = gathered_columns(_random_buffer_infos(spec))
        mixture = MixtureSchedule.static(_drawn_weights(columns.sources, weight_seed))
        mesh = DeviceMesh(pp=1, dp=2, cp=1, tp=2, gpus_per_node=8)
        backbone = DGraph.from_buffer_infos(columns, metas_token)
        backbone.init(ClientPlaceTree(mesh)).with_step(step, seed)
        if mixed:
            backbone.mix(mixture, sample_count=sample_count)
        selected = [i for ids in backbone.plan().source_demands.values() for i in ids]
        by_id = columns.where(np.isin(columns.sample_ids, selected))

        positions = backbone.selected_positions
        assert (positions is None) == (not mixed)
        chosen = np.zeros(len(columns), dtype=bool)
        chosen[slice(None) if positions is None else positions] = True
        by_position = columns.where(chosen)
        for name in ("sample_ids", "text_tokens", "image_tokens", "source_codes"):
            assert np.array_equal(getattr(by_position, name), getattr(by_id, name)), name
        assert (by_position.sources, by_position.runs) == (by_id.sources, by_id.runs)

        config = StrategyConfig(
            mixture=mixture if mixed else None, sample_count=sample_count, num_microbatches=2
        )
        plan = hybrid_vlm_strategy(config)(columns, ClientPlaceTree(mesh), step, seed)
        tree = ClientPlaceTree(mesh)
        tree.mark_broadcast("TP")  # as the backbone graph declared on the shared tree
        encoder = DGraph.from_buffer_infos(by_id, metas_image, module="encoder")
        encoder.init(tree).with_step(step, seed).distribute(axis="WORLD")
        encoder.cost(_image_cost).balance(num_microbatches=2)
        assert _plan_signature(plan.subplan["encoder"]) == _plan_signature(encoder.plan())

    @given(
        spec=buffer_specs,
        step=st.integers(min_value=0, max_value=50),
        budget=st.integers(min_value=1, max_value=60),
        picks=st.lists(st.integers(min_value=0, max_value=10**6), max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_bound_buffer_keeps_rotated_shares(self, spec, step, budget, picks):
        """``bound_buffer`` over a gathered set keeps, per source in name
        order, the rows the record-list rotation keeps; the bounded set stays
        grouped, and its views equal those of columns over its records."""
        buffer_infos = _random_buffer_infos(spec)
        gathered = gathered_columns(buffer_infos)
        by_id = {m.sample_id: m for rows in buffer_infos.values() for m in rows}

        def records_of(columns):
            return SampleColumns.from_samples([by_id[i] for i in columns.sample_ids.tolist()])

        def view(columns):
            return (
                columns.sample_ids.tolist(),
                columns.text_tokens.tolist(),
                columns.image_tokens.tolist(),
                columns.total_tokens.tolist(),
                [columns.sources[code] for code in columns.source_codes.tolist()],
            )

        bounded = bound_buffer(gathered, budget, step)
        assert bounded.sample_ids.tolist() == _bounded_ids(buffer_infos, budget, step)
        eager = records_of(bounded)
        assert view(bounded) == view(eager)
        assert [bounded.sources[code] for code in bounded.source_order()] == [
            eager.sources[code] for code in eager.source_order()
        ]
        assert [pool.tolist() for pool in bounded.pool_positions().values()] == [
            pool.tolist() for pool in eager.pool_positions().values()
        ]
        if len(gathered):
            indices = np.array([pick % len(gathered) for pick in picks], dtype=np.intp)
            picked = gathered.select(indices)
            assert view(picked) == view(records_of(picked))


    @given(
        steps=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=3),
        consume=st.lists(st.integers(min_value=0, max_value=11), min_size=1, max_size=8),
    )
    @settings(max_examples=15, deadline=None)
    def test_delta_gather_exact_across_buffer_churn(self, steps, seed, consume):
        """The gather equals a full copy of every loader's buffer, and
        the plan equals the one the strategy computes from those full copies,
        step for step while loader buffers churn (prepares between plans) —
        including a mid-run pristine replay that forces a resync."""
        filesystem = SimulatedFileSystem()
        catalog = build_source_catalog(
            navit_like_spec(num_sources=3, samples_per_source=48, seed=7), filesystem
        )
        mesh = DeviceMesh(pp=1, dp=4, cp=1, tp=1, gpus_per_node=4)
        system = ActorSystem(ClusterSpec(accelerator_nodes=1, cpu_pods=1))
        handles = [
            system.create_actor(
                lambda src=source: SourceLoader(src, filesystem, buffer_size=16),
                name=f"loader-{index}",
                memory_bytes=GIB,
            )
            for index, source in enumerate(catalog.sources())
        ]
        mixture = MixtureSchedule.uniform([h.instance().source.name for h in handles])
        strategy = backbone_balance_strategy(
            StrategyConfig(mixture=mixture, sample_count=8, num_microbatches=2)
        )
        planner = Planner(
            strategy=strategy, tree=ClientPlaceTree(mesh), mixture=mixture, seed=seed
        )
        planner.register_loaders(handles)

        cursors = [SourceCursor(handle.instance().source, filesystem) for handle in handles]

        def full_copies():
            """Every loader's buffered ids, their tokens read from the stored
            columns, grouped as the gather groups them."""
            replies = []
            for handle, cursor in zip(handles, cursors):
                ids = buffered_ids(handle.instance())
                rows = cursor.rows_of(ids)
                replies.append([{
                    "sample_ids": np.asarray(ids, dtype=np.int64),
                    "text_tokens": cursor.column("text_tokens")[rows],
                    "image_tokens": cursor.column("image_tokens")[rows],
                }])
            return SampleColumns.gathered([cursor.source.name for cursor in cursors], replies)

        for step in range(steps):
            expected = strategy(full_copies(), ClientPlaceTree(mesh), step, seed)
            plan = planner.generate_plan(step)
            assert plan.source_demands == expected.all_source_demands()
            assert plan.mixture_weights == expected.mixture_weights
            assert plan.fetching_ranks == expected.fetching_ranks
            assert plan_bins(plan.modules["backbone"]) == plan_bins(expected.module)
            assert bucket_samples(plan.modules["backbone"]) == bucket_samples(expected.module)
            # Churn the fleet: prepare a drawn subset of the demanded ids
            # (consuming them and triggering a refill).
            for handle in handles:
                ids = plan.source_demands.get(handle.instance().source.name, [])
                picked = sorted({ids[c % len(ids)] for c in consume}) if ids else []
                if picked:
                    system.gcs.take(handle.call("prepare", picked)["key"])
            if step == steps // 2:
                # Pristine replay (the failover bootstrap) on one loader: the
                # gather must see the rebuilt buffer.
                handles[0].call("reset_for_replay")
            # The gathered columns are exactly each loader's buffer — no
            # stale rows, no duplicates, same order.
            infos, _ = planner.gather_buffer_columns()
            expected = full_copies()
            assert infos == expected
            assert infos.source_runs() == expected.source_runs()


class TestNoRecordsPerPlan:
    """A plan is made from the loaders' id and token columns: planning
    builds no sample record."""

    @staticmethod
    def _spy_records(monkeypatch) -> list[int]:
        built: list[int] = []
        init = SampleMetadata.__init__

        def spy(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(1)

        monkeypatch.setattr(SampleMetadata, "__init__", spy)
        return built

    def test_mixture_plan_builds_no_record(self, monkeypatch):
        """fig22's middle point: 16 sources x 1024 deep, a 64-sample mixture plan."""
        depth, num_sources, batch = 1024, 16, 64
        filesystem = SimulatedFileSystem()
        catalog = build_source_catalog(
            navit_like_spec(num_sources=num_sources, samples_per_source=depth, seed=0),
            filesystem,
        )
        system = ActorSystem(ClusterSpec(accelerator_nodes=4, cpu_pods=1))
        handles = [
            system.create_actor(
                lambda src=source: SourceLoader(src, filesystem, buffer_size=depth),
                name=f"loader-{index}",
                memory_bytes=GIB,
            )
            for index, source in enumerate(catalog.sources())
        ]
        mixture = MixtureSchedule.uniform(catalog.names())
        planner = Planner(
            strategy=backbone_balance_strategy(
                StrategyConfig(mixture=mixture, sample_count=batch, num_microbatches=2)
            ),
            tree=ClientPlaceTree(DeviceMesh(pp=1, dp=4, cp=1, tp=1, gpus_per_node=4)),
            mixture=mixture,
        )
        planner.register_loaders(handles)
        built = self._spy_records(monkeypatch)
        for step in range(3):
            plan = planner.generate_plan(step)
            assert plan.total_samples() == batch
            assert built == []
            for handle in handles:
                ids = plan.source_demands.get(handle.instance().source.name, [])
                if ids:
                    handle.call("replay_demands", list(ids))
        assert len(bucket_samples(plan.module("backbone"))) == 4

    def test_sized_path_builds_no_record(self, monkeypatch):
        """The auto-sized strategy: ``bound_buffer`` cuts the gathered set by
        source runs, then the mix selects the batch."""
        system = MegaScaleData.deploy(
            TrainingJobSpec(
                pp=1, dp=2, cp=1, tp=1, encoder=None, strategy="backbone_balance",
                samples_per_dp_step=8, num_microbatches=2, num_sources=6,
                samples_per_source=256, seed=3, prefetch_depth=0,
            )
        )
        try:
            system.run_step()
            built = self._spy_records(monkeypatch)
            for _ in range(3):
                assert system.run_step().plan.total_samples() > 0
                assert built == []
        finally:
            system.shutdown()


class TestEmptyBufferBucketing:
    def test_empty_buffer_buckets_under_declared_source(self, system, filesystem, small_catalog, dp_mesh):
        """Regression: an empty loader must report under its *declared*
        source, not its actor name — one source can never split into a
        metadata-derived bucket and a name-derived one."""
        source = small_catalog.sources()[0]
        handles = [
            system.create_actor(
                lambda idx=index: SourceLoader(
                    source, filesystem, buffer_size=8, deferred_refill=True
                ),
                name=f"oddly-named-{index}",
                memory_bytes=GIB,
            )
            for index in range(2)
        ]
        # Drain the second loader completely; deferred_refill keeps it empty.
        loader = handles[1].instance()
        ids = buffered_ids(loader)
        system.gcs.take(handles[1].call("prepare", ids)["key"])
        assert loader.buffer_depth() == 0

        planner = Planner(
            strategy=vanilla_strategy(StrategyConfig(num_microbatches=2)),
            tree=ClientPlaceTree(dp_mesh),
        )
        planner.register_loaders(handles)
        infos, _ = planner.gather_buffer_columns()
        assert infos.sources == (source.name,)
        assert len(infos) == 8


@pytest.mark.parametrize("job", [TrainingJobSpec.vlm_example, TrainingJobSpec.text_example])
def test_a_plan_is_validated_once_where_it_is_built(job, monkeypatch):
    """``DGraph.plan`` validates each module plan; the Planner then checks only
    that the assigned ids are among the demands."""
    from dataclasses import replace

    from repro.core.plans import ModulePlan

    validated = []
    plain = ModulePlan.validate
    monkeypatch.setattr(
        ModulePlan, "validate", lambda plan: validated.append(plan.module) or plain(plan)
    )
    system = MegaScaleData.deploy(replace(job(), prefetch_depth=0))
    try:
        system.run_step()
        validated.clear()
        plan = system.run_step().plan
        assert sorted(validated) == sorted(plan.modules)
    finally:
        system.shutdown()
