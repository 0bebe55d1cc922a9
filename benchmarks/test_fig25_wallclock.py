"""Fig. 25 (ext): wallclock backend — real prefetch overlap, calibrated back.

The wallclock backend executes the same job on real thread-parallel actor
lanes (``backend="wallclock"``), so prefetch overlap stops being simulated
and becomes *measured*: on a fetch-bound job, ``prefetch_depth>0`` must
strictly reduce the trainer's measured wall-clock stall versus the
synchronous ``depth=0`` baseline, while delivering batches byte-identical to
the virtual backend at every depth (the engine's cross-backend contract).

The run also closes the calibration loop: every completed call's measured
occupancy feeds a :class:`~repro.core.cost_model.LatencyRecorder`, whose
:class:`~repro.core.cost_model.CalibratedLatencyProvider` replays those
latencies as virtual durations in a deterministic rerun.  The reconciliation
report compares measured vs simulated hidden/exposed/stall time; the gate
tolerance is :data:`RECONCILE_TOLERANCE`.  (Total wall time is reported but
not gated: the driver thread's real epilogue work between steps is visible
to the wallclock run and invisible to the event engine by design.)

Writes ``BENCH_fig25_wallclock.json``:

- the committed ``wallclock`` section (full depth sweep), and
- a fresh ``smoke`` section when ``BENCH_WALLCLOCK_SMOKE=1`` (the CI
  ``wallclock-bench`` leg), gated by
  ``benchmarks/check_wallclock_regression.py`` on the machine-independent
  same-run stall reduction.
"""

from __future__ import annotations

import os

from repro.core.cost_model import CalibratedLatencyProvider, reconcile_timing
from repro.core.framework import MegaScaleData, TrainingJobSpec, fetch_bound_gpu_spec
from repro.metrics.report import MetricReport

from .conftest import emit, write_bench_json

#: Smoke mode only selects which artifact section is written (the CI leg's
#: fresh rows vs the committed baseline); the workload itself is identical,
#: so the regression gate compares like with like.
SMOKE = os.environ.get("BENCH_WALLCLOCK_SMOKE") == "1"
NUM_STEPS = 8
DEPTHS = (0, 1, 2)
#: Real seconds the scaled depth-0 wallclock run should take; the time scale
#: is derived from a virtual probe so the sweep stays CI-friendly while the
#: modelled sleeps still dominate thread-scheduling noise.
REAL_BUDGET_S = 2.0
#: Reconciliation gate for measured-vs-calibrated-simulated data-plane time.
RECONCILE_TOLERANCE = 0.35
RECONCILE_METRICS = ("hidden_data_time_s", "exposed_data_time_s", "data_stall_time_s")


def make_job(
    depth: int, gpu_spec=None, backend: str = "virtual", wallclock_time_scale: float = 1.0
) -> TrainingJobSpec:
    return TrainingJobSpec(
        pp=1, dp=2, cp=1, tp=1, encoder=None, strategy="backbone_balance",
        samples_per_dp_step=8, num_microbatches=2, num_sources=3,
        samples_per_source=128, seed=5, prefetch_depth=depth,
        gpu_spec=gpu_spec, backend=backend, wallclock_time_scale=wallclock_time_scale,
    )


def delivery_signature(result):
    return {
        rank: [
            (piece.rank, piece.microbatch_index, piece.token_count, piece.payload_bytes)
            for piece in delivery.slices
        ]
        for rank, delivery in sorted(result.deliveries.items())
    }


def run_backend(job: TrainingJobSpec, provider=None):
    """Run NUM_STEPS steps; returns (signatures, metrics, calibration samples)."""
    fw = MegaScaleData.deploy(job)
    try:
        if provider is not None:
            fw.system.latency_provider = provider
        wall_start = fw.virtual_time_s()
        signatures = []
        metrics = {
            "data_stall_time_s": 0.0,
            "hidden_data_time_s": 0.0,
            "exposed_data_time_s": 0.0,
        }
        for _ in range(NUM_STEPS):
            result = fw.run_step(simulate=True)
            signatures.append(delivery_signature(result))
            metrics["data_stall_time_s"] += result.data_stall_s
            metrics["hidden_data_time_s"] += result.hidden_fetch_s
            metrics["exposed_data_time_s"] += result.exposed_fetch_s
        metrics["virtual_wall_time_s"] = fw.virtual_time_s() - wall_start
        system = fw.system
        samples = (
            system.engine.calibration.samples() if system.backend == "wallclock" else None
        )
        return signatures, metrics, samples
    finally:
        fw.shutdown()


def _sweep():
    gpu = fetch_bound_gpu_spec(make_job(0), compute_fraction=0.42)
    # Size the time scale off a virtual probe: depth 0 exposes the whole
    # fetch chain, so its virtual wall time bounds the sweep's real cost.
    _, probe, _ = run_backend(make_job(0, gpu))
    time_scale = REAL_BUDGET_S / max(1e-9, probe["virtual_wall_time_s"])

    rows = []
    calibration_samples = None
    for depth in DEPTHS:
        virtual_sigs, virtual_metrics, _ = run_backend(make_job(depth, gpu))
        wallclock_sigs, measured, samples = run_backend(
            make_job(
                depth, gpu, backend="wallclock", wallclock_time_scale=time_scale
            )
        )
        rows.append(
            {
                "prefetch_depth": depth,
                "byte_identical": virtual_sigs == wallclock_sigs,
                "measured": measured,
                "simulated": virtual_metrics,
            }
        )
        calibration_samples = samples  # deepest depth's samples win

    # Calibration loop: replay the deepest run's measured latencies as
    # virtual durations in a deterministic rerun, then reconcile.
    provider = CalibratedLatencyProvider(calibration_samples)
    _, calibrated, _ = run_backend(make_job(DEPTHS[-1], gpu), provider=provider)
    reconciliation = reconcile_timing(
        rows[-1]["measured"],
        calibrated,
        metrics=RECONCILE_METRICS,
        tolerance=RECONCILE_TOLERANCE,
    )
    return time_scale, rows, calibrated, reconciliation


def test_fig25_wallclock_prefetch_hides_measured_stall(benchmark):
    """Real threads: depth>0 cuts measured stall; batches match virtual."""
    time_scale, rows, calibrated, reconciliation = benchmark.pedantic(
        _sweep, rounds=1, iterations=1
    )

    report = MetricReport(
        title="Fig. 25 (ext) - wallclock backend: measured stall vs prefetch depth",
        columns=["depth", "measured stall (s)", "simulated stall (s)",
                 "measured wall (s)", "simulated wall (s)", "byte-identical"],
    )
    for row in rows:
        report.add_row(
            row["prefetch_depth"],
            round(row["measured"]["data_stall_time_s"], 3),
            round(row["simulated"]["data_stall_time_s"], 3),
            round(row["measured"]["virtual_wall_time_s"], 3),
            round(row["simulated"]["virtual_wall_time_s"], 3),
            row["byte_identical"],
        )
    emit(report)

    baseline = rows[0]["measured"]["data_stall_time_s"]
    deepest = rows[-1]["measured"]["data_stall_time_s"]
    hidden = rows[-1]["measured"]["hidden_data_time_s"]
    exposed = rows[-1]["measured"]["exposed_data_time_s"]
    payload = {
        "steps": NUM_STEPS,
        "time_scale": time_scale,
        "rows": rows,
        "calibrated_simulation": calibrated,
        "reconciliation": reconciliation,
        "stall_reduction": baseline / deepest if deepest > 0 else float("inf"),
        # The same-run overlap ratio the CI gate tracks: what fraction of the
        # deepest run's measured fetch time real prefetching actually hid.
        "hidden_fraction": hidden / (hidden + exposed) if hidden + exposed > 0 else 0.0,
    }
    write_bench_json("fig25_wallclock", "smoke" if SMOKE else "wallclock", payload)

    # Cross-backend contract: every depth delivered byte-identical batches.
    assert all(row["byte_identical"] for row in rows)
    # The headline claim: real prefetch overlap strictly cuts the measured
    # trainer stall on a fetch-bound job, at every depth > 0.
    assert baseline > 0
    for row in rows[1:]:
        assert row["measured"]["data_stall_time_s"] < baseline
    # Calibration closes the loop: the virtual rerun under replayed measured
    # latencies reconciles the data-plane time split within tolerance.
    assert reconciliation["within_tolerance"], reconciliation
