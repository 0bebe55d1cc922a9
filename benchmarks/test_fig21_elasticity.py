"""Fig. 21 (ext): elastic loader fleet vs a frozen fleet on a bursty mixture.

A mixture burst concentrates demand on one source: its loader becomes the
bottleneck and the trainer stalls.  With the elastic fleet enabled the
AutoScaler's piggybacked ScalingPlan directives actually spawn mirror
loaders through the placement scheduler, splitting the hot source's demands
and cutting the exposed data stall; the frozen fleet
(``enable_autoscaler=False``: no scaler, no directives) keeps paying it.
Batches are byte-identical either way — elasticity moves timing, never data.

Writes ``BENCH_fig21_elastic.json``:

- the committed ``elastic_fleet`` section (full run), and
- a fresh ``smoke`` section when ``BENCH_ELASTIC_SMOKE=1`` (the CI
  ``elasticity-bench`` leg), gated by
  ``benchmarks/check_elastic_regression.py`` on the machine-independent
  same-run stall reduction.
"""

from __future__ import annotations

import os

from repro.core.framework import MegaScaleData, TrainingJobSpec
from repro.data.mixture import MixturePhase, MixtureSchedule
from repro.metrics.report import MetricReport

from .conftest import emit, write_bench_json

#: Smoke mode only selects which artifact section is written (the CI leg's
#: fresh rows vs the committed baseline); the workload itself is identical,
#: so the regression gate compares like with like.
SMOKE = os.environ.get("BENCH_ELASTIC_SMOKE") == "1"
NUM_STEPS = 14
BURST_STEP = 2


def bursty_mixture():
    """Uniform warmup, then a sustained burst on src000."""
    return MixtureSchedule.staged(
        [
            MixturePhase(0, {"navit_data/src000": 1 / 3, "navit_data/src001": 1 / 3,
                             "navit_data/src002": 1 / 3}),
            MixturePhase(BURST_STEP, {"navit_data/src000": 0.8,
                                      "navit_data/src001": 0.1,
                                      "navit_data/src002": 0.1}),
        ]
    )


_FETCH_BOUND_GPU = None


def make_job(elastic: bool, gpu_spec=None) -> TrainingJobSpec:
    return TrainingJobSpec(
        pp=1, dp=2, cp=1, tp=1, encoder=None, strategy="backbone_balance",
        samples_per_dp_step=8, num_microbatches=2, num_sources=3,
        samples_per_source=64, seed=5, prefetch_depth=2,
        mixture=bursty_mixture(), enable_autoscaler=elastic, gpu_spec=gpu_spec,
    )


def fetch_bound_gpu():
    """A GPU calibrated so one compute window is ~40% of the fetch chain.

    On a compute-bound job prefetching hides the whole data plane and both
    fleets report zero stall; the paper's elasticity story is about the
    fetch-bound regime, where loader throughput is the binding constraint
    and scale-up directly moves the exposed stall.
    """
    global _FETCH_BOUND_GPU
    if _FETCH_BOUND_GPU is None:
        from repro.core.framework import fetch_bound_gpu_spec

        _FETCH_BOUND_GPU = fetch_bound_gpu_spec(make_job(False), compute_fraction=0.4)
    return _FETCH_BOUND_GPU


def run_mode(elastic: bool) -> dict:
    system = MegaScaleData.deploy(make_job(elastic, gpu_spec=fetch_bound_gpu()))
    if elastic:  # a frozen fleet (enable_autoscaler=False) deploys no scaler
        scaler = system.planner_handle.instance().scaler
        scaler.consecutive_intervals = 2
        scaler.window = 3
    try:
        summary = system.run_training(num_steps=NUM_STEPS)
        stall_series = [
            {"step": step, "stall_s": stall, "fleet": fleet}
            for step, stall, fleet in system.trainer_handle.instance().stall_log
        ]
        return {
            "mode": "elastic" if elastic else "frozen",
            "steps": NUM_STEPS,
            "data_stall_time_s": summary["data_stall_time_s"],
            "exposed_data_time_s": summary["exposed_data_time_s"],
            "hidden_data_time_s": summary["hidden_data_time_s"],
            "virtual_wall_time_s": summary["virtual_wall_time_s"],
            "throughput_tokens_per_s": summary.get("throughput_tokens_per_s", 0.0),
            "fleet_spawns": summary["fleet_spawns"],
            "fleet_retires": summary["fleet_retires"],
            "peak_loader_actors": summary["peak_loader_actors"],
            "peak_node_cpu_utilization": summary["peak_node_cpu_utilization"],
            "mean_node_cpu_utilization": summary["mean_node_cpu_utilization"],
            "stall_series": stall_series,
        }
    finally:
        system.shutdown()


def test_fig21_frozen_fleet_is_enable_autoscaler_false():
    """The frozen baseline deploys no scaler and is pinned bit for bit.

    The retired ``elastic_fleet=False`` twin produced a stall of
    196.31357341700587 s and a virtual wall of 328.11445935052427 s (the
    committed artifact's frozen row).  Both dropped by the same 23.81 s when a
    ticket's accept and hand-off were folded into its first and final polls.
    Each of those two calls was a zero-length event that still booked one of
    the loader's ``prefetch_depth + 1`` lanes, and the hand-off, booked last,
    took the lane that would have freed first, so the next step's ticket
    found its earliest free lane one chunk later: step 1 on src000 started at
    20.32 s before the fold and starts at 16.43 s now.  The fetch total
    ``hidden + exposed`` is unchanged.
    """
    frozen = run_mode(elastic=False)
    assert frozen["fleet_spawns"] == 0
    assert frozen["data_stall_time_s"] == 172.5036486060551
    assert frozen["virtual_wall_time_s"] == 304.30453453957347
    assert frozen["hidden_data_time_s"] + frozen["exposed_data_time_s"] == 374.42266841060257


def test_fig21_elastic_fleet_cuts_exposed_stall(benchmark):
    """Scale-up under a burst cuts exposed data stall vs the frozen fleet."""
    rows = benchmark(lambda: [run_mode(elastic=False), run_mode(elastic=True)])
    frozen, elastic = rows

    report = MetricReport(
        title="Fig. 21 (ext) - elastic vs frozen loader fleet on a bursty mixture",
        columns=["fleet", "stall (s)", "exposed (s)", "virtual wall (s)",
                 "tokens/s", "spawns", "peak actors", "peak node cpu"],
    )
    for row in rows:
        report.add_row(
            row["mode"],
            round(row["data_stall_time_s"], 3),
            round(row["exposed_data_time_s"], 3),
            round(row["virtual_wall_time_s"], 3),
            round(row["throughput_tokens_per_s"], 1),
            int(row["fleet_spawns"]),
            int(row["peak_loader_actors"]),
            round(row["peak_node_cpu_utilization"], 4),
        )
    emit(report)

    stall_reduction = (
        frozen["data_stall_time_s"] / elastic["data_stall_time_s"]
        if elastic["data_stall_time_s"] > 0
        else float("inf")
    )
    payload = {
        "burst_step": BURST_STEP,
        "rows": rows,
        "stall_reduction": stall_reduction,
        "wall_speedup": frozen["virtual_wall_time_s"] / elastic["virtual_wall_time_s"],
    }
    write_bench_json("fig21_elastic", "smoke" if SMOKE else "elastic_fleet", payload)

    # The headline claim: scale-up genuinely happened and cut the stall.
    assert elastic["fleet_spawns"] >= 1
    assert frozen["fleet_spawns"] == 0
    assert elastic["data_stall_time_s"] < frozen["data_stall_time_s"]
    assert elastic["exposed_data_time_s"] < frozen["exposed_data_time_s"]
    # Elastic throughput is no worse than the frozen fleet's.
    assert elastic["throughput_tokens_per_s"] >= frozen["throughput_tokens_per_s"]
    assert elastic["virtual_wall_time_s"] < frozen["virtual_wall_time_s"]
    # The elastic fleet used strictly more placement (spawned mirrors)...
    assert elastic["peak_node_cpu_utilization"] > frozen["peak_node_cpu_utilization"]
    # ...and the stall series shows the burst being absorbed: the worst
    # post-scale-up stall is below the frozen fleet's worst stall.
    first_scaled = next(
        (entry["step"] for entry in elastic["stall_series"]
         if entry["fleet"] > elastic["stall_series"][0]["fleet"]),
        None,
    )
    assert first_scaled is not None
    frozen_worst = max(entry["stall_s"] for entry in frozen["stall_series"][first_scaled:])
    elastic_worst = max(entry["stall_s"] for entry in elastic["stall_series"][first_scaled:])
    assert elastic_worst < frozen_worst
