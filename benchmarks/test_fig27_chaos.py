"""Fig. 27 (ext): survivability — a full fault storm vs the degraded-mode policies.

The chaos engine drives a declarative storm containing every fault class of
Sec. 6.1 — a node crash (planner + canonical loaders), a loader straggler
window, a control-plane (GCS) blip, a checkpoint-store outage and a source
blackout long enough to black out several planning rounds — against the same
job on both execution backends (virtual event clock and real thread lanes)
under both degraded-mode policies:

- ``strict``: fail-stop semantics.  Every fault is healed (crashes restart
  from differential checkpoints, alive-but-dark actors are waited out), the
  run completes every step, and the delivered batches are byte-identical to
  a fault-free baseline — chaos may cost time, never data.
- ``renormalize``: availability-first.  A blacked-out source is dropped from
  the mixture (weights renormalized over the survivors) and its missed
  quota is repaid by the deterministic catch-up schedule once it returns;
  the run completes every step and the *cumulative* per-source sample
  counts equal the fault-free baseline exactly (quota-exactness), though
  individual steps differ.

Both properties are gated per backend; the storm must actually fire every
fault kind on the virtual backend (instants are deterministic there).  The
survivable wall-clock overhead of the storm is recorded and bounded.

Writes ``BENCH_fig27_chaos.json``:

- the committed ``chaos`` section (full backend × mode matrix), and
- a fresh ``smoke`` section when ``BENCH_CHAOS_SMOKE=1`` (the CI
  ``chaos-bench`` leg), gated by ``benchmarks/check_chaos_regression.py``.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos import ChaosEngine, FaultEvent, FaultPlan
from repro.core.checkpoint import InMemoryCheckpointStore
from repro.core.framework import MegaScaleData, TrainingJobSpec
from repro.metrics.report import MetricReport

from .conftest import emit, write_bench_json

#: Smoke mode only selects which artifact section is written (the CI leg's
#: fresh rows vs the committed baseline); the workload itself is identical.
SMOKE = os.environ.get("BENCH_CHAOS_SMOKE") == "1"
NUM_STEPS = 10
PREFETCH_DEPTH = 1
MODES = ("strict", "renormalize")
#: Real seconds the scaled wallclock runs should take each.
REAL_BUDGET_S = 2.0
#: Survivability bound: virtual wall time under the storm may not exceed
#: this multiple of the fault-free baseline (waits and replays cost time,
#: but a survivable storm must not stall the trainer unboundedly).
STALL_BOUND = 2.0


def make_job(
    degraded_mode: str = "strict", backend: str = "virtual", wallclock_time_scale: float = 1.0
) -> TrainingJobSpec:
    return TrainingJobSpec(
        pp=1, dp=2, cp=1, tp=1, encoder=None, strategy="backbone_balance",
        samples_per_dp_step=8, num_microbatches=2, num_sources=3,
        samples_per_source=128, seed=5, prefetch_depth=PREFETCH_DEPTH,
        enable_shadow_loaders=True, degraded_mode=degraded_mode, backend=backend,
        wallclock_time_scale=wallclock_time_scale,
    )


def delivery_signature(result):
    return {
        rank: [
            (piece.rank, piece.microbatch_index, piece.token_count, piece.payload_bytes)
            for piece in delivery.slices
        ]
        for rank, delivery in sorted(result.deliveries.items())
    }


def build_storm(base_wall_s: float) -> FaultPlan:
    """Every Sec. 6.1 fault class, scheduled at fractions of the baseline wall.

    The blackout window spans ~1.5 steps so it reliably coincides with
    loader calls (windowed faults only bite calls that land inside them)
    and sits early in the run, leaving renormalize mode's quota catch-up
    several healthy steps to repay the debt inside the measured window;
    the gcs blip spans >1 step so a planner call must land inside it; the
    node crash takes out ``cpu-pod-0`` — the planner's and the first
    canonical loaders' preferred placement — so recovery exercises the
    coordinator restart path, not just loader failover.
    """
    step_s = base_wall_s / NUM_STEPS
    return FaultPlan([
        FaultEvent("node_crash", 0.10 * base_wall_s, target="cpu-pod-0"),
        FaultEvent(
            "source_blackout", 0.22 * base_wall_s, target="navit_data/src001",
            duration_s=1.5 * step_s,
        ),
        FaultEvent(
            "straggler", 0.50 * base_wall_s, target="source_loader",
            duration_s=1.0 * step_s, factor=4.0,
        ),
        FaultEvent("gcs_blip", 0.62 * base_wall_s, target="planner", duration_s=1.2 * step_s),
        FaultEvent("store_outage", 0.80 * base_wall_s, duration_s=1.2 * step_s),
    ])


def run_case(job: TrainingJobSpec, storm: FaultPlan | None = None):
    """Run NUM_STEPS; returns (signatures, demand counts, wall, chaos/ft summaries)."""
    engine = None
    store = InMemoryCheckpointStore()
    if storm is not None:
        engine = ChaosEngine(storm)
        store = engine.wrap_store(store)
    fw = MegaScaleData.deploy(job, checkpoint_store=store)
    try:
        if engine is not None:
            engine.attach(fw.system)
        signatures = []
        for _ in range(NUM_STEPS):
            result = fw.run_step(simulate=True)
            signatures.append(delivery_signature(result))
        counts: dict[str, int] = {}
        for plan in fw.planner_handle.instance().plans_since(-1):
            if plan.step < NUM_STEPS:
                for source, ids in plan.source_demands.items():
                    counts[source] = counts.get(source, 0) + len(ids)
        wall = fw.virtual_time_s()
        fired = engine.summary()["counts"] if engine is not None else {}
        recoveries = fw.fault_manager.recovery_summary()
        return signatures, counts, wall, fired, recoveries
    finally:
        fw.shutdown()


def _matrix():
    # Size the wallclock time scale and the storm instants off one virtual
    # probe: the storm's fractions-of-wall instants then land identically on
    # both backends (the wallclock engine reports virtual units too).
    _, _, probe_wall, _, _ = run_case(make_job(degraded_mode="strict"))
    time_scale = REAL_BUDGET_S / max(1e-9, probe_wall)
    storm_template = build_storm(probe_wall)

    rows = []
    for backend in ("virtual", "wallclock"):
        backend_kw = (
            {"backend": "wallclock", "wallclock_time_scale": time_scale}
            if backend == "wallclock"
            else {}
        )
        for mode in MODES:
            base_sigs, base_counts, base_wall, _, _ = run_case(make_job(mode, **backend_kw))
            try:
                sigs, counts, wall, fired, recoveries = run_case(
                    make_job(mode, **backend_kw), storm=FaultPlan(list(storm_template.events))
                )
            except Exception as exc:
                raise AssertionError(
                    f"storm run did not survive on {backend}/{mode}: {exc!r}"
                ) from exc
            rows.append(
                {
                    "backend": backend,
                    "mode": mode,
                    "steps_completed": len(sigs),
                    "byte_identical": sigs == base_sigs,
                    "quota_exact": counts == base_counts,
                    "baseline_wall_s": base_wall,
                    "chaos_wall_s": wall,
                    "wall_ratio": wall / base_wall if base_wall > 0 else float("inf"),
                    "fired": fired,
                    "recoveries": recoveries["by_kind"],
                    "per_source_samples": counts,
                }
            )
    return time_scale, storm_template.describe(), rows


def test_fig27_chaos_storm_survivability(benchmark):
    """Full fault storm: zero lost steps, strict byte-identity, quota-exact catch-up."""
    time_scale, storm, rows = benchmark.pedantic(_matrix, rounds=1, iterations=1)

    report = MetricReport(
        title="Fig. 27 (ext) - chaos storm survivability by backend and degraded mode",
        columns=["backend", "mode", "steps", "byte-identical", "quota-exact",
                 "wall ratio", "faults fired"],
    )
    for row in rows:
        report.add_row(
            row["backend"], row["mode"], f"{row['steps_completed']}/{NUM_STEPS}",
            row["byte_identical"], row["quota_exact"],
            round(row["wall_ratio"], 3), sum(row["fired"].values()),
        )
    emit(report)

    payload = {
        "steps": NUM_STEPS,
        "prefetch_depth": PREFETCH_DEPTH,
        "time_scale": time_scale,
        "storm": storm,
        "stall_bound": STALL_BOUND,
        "rows": rows,
    }
    write_bench_json("fig27_chaos", "smoke" if SMOKE else "chaos", payload)

    for row in rows:
        label = f"{row['backend']}/{row['mode']}"
        # Survivability: every step completed despite the storm.
        assert row["steps_completed"] == NUM_STEPS, label
        # Quota-exactness holds in both modes: strict delivers the same
        # bytes, renormalize repays the blackout debt sample-exactly.
        assert row["quota_exact"], label
        if row["mode"] == "strict":
            assert row["byte_identical"], label
        if row["backend"] == "virtual":
            # Deterministic instants: every fault class must actually fire
            # (windowed faults only count when a call lands inside them).
            assert set(row["fired"]) == {
                "node_crash", "straggler", "gcs_blip", "store_outage", "source_blackout"
            }, (label, row["fired"])
            # Bounded stall: waits and replays may stretch the run, but the
            # storm must not stall the trainer unboundedly.
            assert row["wall_ratio"] <= STALL_BOUND, (label, row["wall_ratio"])


# -- property: random storms never lose data ------------------------------------------------

PROPERTY_STEPS = 10
#: Fraction of the run the storm may span.  Random windows end by
#: ~0.97x the horizon, so this leaves a quiescent tail of several healthy
#: steps in which renormalize mode's deterministic catch-up repays any
#: blackout debt before the cumulative quotas are compared.
PROPERTY_STORM_SPAN = 0.6
#: Fault-free references per mode (sigs, counts, wall, target pools),
#: computed once and shared across hypothesis examples.
_property_baselines: dict[str, tuple[list, dict, float, dict]] = {}


def _run_property(mode: str, storm: FaultPlan | None = None):
    """Run PROPERTY_STEPS under a storm (None = fault-free reference)."""
    store = InMemoryCheckpointStore()
    engine = None
    if storm is not None:
        engine = ChaosEngine(storm)
        store = engine.wrap_store(store)
    fw = MegaScaleData.deploy(make_job(degraded_mode=mode), checkpoint_store=store)
    try:
        if engine is not None:
            engine.attach(fw.system)
        signatures = []
        for _ in range(PROPERTY_STEPS):
            result = fw.run_step(simulate=True)
            signatures.append(delivery_signature(result))
        counts: dict[str, int] = {}
        for plan in fw.planner_handle.instance().plans_since(-1):
            if plan.step < PROPERTY_STEPS:
                for source, ids in plan.source_demands.items():
                    counts[source] = counts.get(source, 0) + len(ids)
        pools = {
            "actors": [fw.planner_handle.name, fw.loader_handles[0].name],
            "sources": [
                handle.instance().source.name for handle in fw.loader_handles
            ],
        }
        return signatures, counts, fw.virtual_time_s(), pools
    finally:
        fw.shutdown()


def _assert_seeded_storm_survives(seed: int, mode: str) -> None:
    """Run one seeded storm and assert the survivability contract."""
    if mode not in _property_baselines:
        _property_baselines[mode] = _run_property(mode)
    base_sigs, base_counts, base_wall, pools = _property_baselines[mode]
    storm = FaultPlan.random_storm(
        seed,
        horizon_s=PROPERTY_STORM_SPAN * base_wall,
        actors=pools["actors"],
        nodes=["cpu-pod-0"],
        sources=pools["sources"],
        roles=["source_loader"],
        num_events=4,
    )
    sigs, counts, _, _ = _run_property(mode, storm)
    assert len(sigs) == PROPERTY_STEPS
    assert counts == base_counts
    if mode == "strict":
        assert sigs == base_sigs


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(seed=st.integers(min_value=0, max_value=63), mode=st.sampled_from(MODES))
def test_fig27_random_storms_never_lose_data(seed, mode):
    """Any seeded storm: all steps complete and cumulative quotas are exact.

    Strict mode additionally guarantees byte-identical deliveries — chaos
    may cost wall time, never samples.  Windowed faults in a random storm
    may or may not coincide with calls (lazy activation), so the property
    asserts outcomes, not that every drawn fault fired.  The storm is
    confined to the first ``PROPERTY_STORM_SPAN`` of the run: quota
    exactness is a statement about the post-storm steady state, so the
    catch-up schedule must be given healthy steps to repay the debt.
    """
    _assert_seeded_storm_survives(seed, mode)


#: Pinned storm seeds replayed verbatim by the CI leg.  The hypothesis
#: property above *samples* the seed space (different examples per run);
#: this matrix pins a fixed slice of it so a flaky recovery path fails
#: the same way on every run instead of intermittently.  Seeds 0 and 55
#: are former falsifiers (catch-up starvation and a loader that died
#: mid-outage, respectively); 23 is an arbitrary third draw.
STORM_MATRIX_SEEDS = (0, 23, 55)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", STORM_MATRIX_SEEDS)
def test_fig27_seeded_storm_matrix(seed, mode):
    """Deterministic 3-storm matrix: pinned seeds, both degraded modes."""
    _assert_seeded_storm_survives(seed, mode)
