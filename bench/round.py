"""One round of one workload, in a process of its own.

A round is the fixed unit of work: build the catalog, deploy, warm up
(``setup_s``), run the workload's fixed number of measured steps in a closed
loop, check the outputs, and — when traced — attribute the measured time to
layers.  The runner starts one fresh interpreter per round so ``peak_rss_mb``
belongs to the round and no state leaks between rounds; this module prints
the round's result as one JSON line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import traceback
from time import perf_counter

import numpy

from bench.tracer import LAYERS, SETUP_STEP, Tracer, self_times
from bench.workloads import WORKLOADS, Workload


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def python_kernel() -> float:
    """Seconds for a fixed piece of interpreter-bound work (dict + arithmetic)."""
    start = perf_counter()
    table: dict[int, int] = {}
    for index in range(12000):
        key = index % 997
        table[key] = table.get(key, 0) + index
    return perf_counter() - start


def memset_kernel() -> float:
    """Seconds for a fixed piece of memory-bound work.

    The same allocation ``ImageDecode.apply`` makes per sample (a zeroed
    ``(patches, 588)`` float32 tensor), which is what the VLM workloads spend
    most of their time in.
    """
    start = perf_counter()
    for _ in range(8):
        numpy.zeros((700, 588), dtype=numpy.float32)
    return perf_counter() - start


#: Reference kernels and their *nominal* time: the 10th percentile of the
#: kernel beside its workloads on the box this was written on (2 vCPUs, see
#: README).  A kernel reading above nominal means the machine is, right now,
#: that much slower at that kind of work.
REFERENCES = {
    "python": (python_kernel, 1.45e-3),
    "memset": (memset_kernel, 0.355e-3),
}


class PhaseClock:
    """Phase boundaries, each with a reading of the machine's current speed.

    This box's speed drifts by up to 1.5x for tens of seconds at a time
    (shared host), which no amount of repetition inside a 30 s run averages
    out.  So both reference kernels run at every phase boundary; a phase's
    slowdown by a kernel is the smaller of its two readings around the phase
    over the kernel's nominal time, and the runner divides the phase's wall
    time by it.  Kernel time itself lies outside every phase.
    """

    def __init__(self) -> None:
        self._marks: list[tuple[float, dict[str, float], float]] = []

    def mark(self) -> None:
        enter = perf_counter()
        readings = {name: kernel() for name, (kernel, _) in REFERENCES.items()}
        self._marks.append((enter, readings, perf_counter()))

    def phases(self) -> list[tuple[float, dict[str, float]]]:
        """``(wall seconds, slowdown by kernel)`` of every phase between two marks."""
        return [
            (
                after[0] - before[2],
                {
                    name: min(before[1][name], after[1][name]) / nominal_s
                    for name, (_, nominal_s) in REFERENCES.items()
                },
            )
            for before, after in zip(self._marks, self._marks[1:])
        ]


def run_round(
    workload: Workload, seed: int, traced: bool, quick: bool = False, spans_path: str | None = None
) -> dict:
    from repro import MegaScaleData
    from repro.actors.runtime import ActorSystem
    from repro.data.synthetic import build_source_catalog
    from repro.storage.filesystem import SimulatedFileSystem

    tracer = Tracer()
    events_executed = [0]
    if traced:
        # ``tick`` returns how many deferred calls it executed; tally that
        # before the tracer wraps it, so events/step is a count made where
        # the work happens rather than inferred from child spans.
        plain_tick = ActorSystem.tick

        def counting_tick(self, max_calls=1):
            executed = plain_tick(self, max_calls)
            events_executed[0] += executed
            return executed

        ActorSystem.tick = counting_tick
        tracer.install()

    # -- set-up: catalog build + deploy + warm-up (imports excluded) -----------
    # One phase each; the runner takes every phase's minimum over a run's
    # rounds (the rounds of a seed do identical work).
    clock = PhaseClock()
    clock.mark()
    job, dataset = workload.build(seed)
    filesystem = SimulatedFileSystem()
    catalog = build_source_catalog(dataset, filesystem)
    clock.mark()
    system = MegaScaleData.deploy(job, catalog=catalog, filesystem=filesystem)
    clock.mark()
    for _ in range(workload.warmup):
        system.run_step(simulate=True)
        clock.mark()
    setup_phases = 2 + workload.warmup  # build, deploy, warm-up steps

    # -- measured phase: closed loop, one client --------------------------------
    results = []
    latencies_ms: list[float] = []
    failed = 0
    actors_live_peak = 0
    events_before = events_executed[0]
    virtual_s = -system.virtual_time_s()

    def one_step(index: int) -> None:
        """Control op (if scheduled) + one step; a step that raises is counted."""
        nonlocal failed
        tracer.step = index
        start = perf_counter()
        try:
            if workload.event is not None:
                workload.event(system, index)
            start = perf_counter()
            results.append(system.run_step(simulate=True))
        except Exception:  # noqa: BLE001 - a failed step is counted, not fatal
            failed += 1
            traceback.print_exc(file=sys.stderr)
        # One entry per iteration even when it failed: rounds stay aligned.
        latencies_ms.append((perf_counter() - start) * 1e3)

    steps = workload.quick_steps if quick else workload.steps
    for index in range(steps):
        one_step(index)
        if traced:
            actors_live_peak = max(actors_live_peak, len(system.system.list_actor_names()))
        clock.mark()
    attempted = steps
    virtual_s += system.virtual_time_s()
    loader_mem_bytes = system.memory_report()["total"]
    systems = [system]
    if workload.restore_after:
        store = system.checkpoint_store
        system.shutdown()
        tracer.step = attempted
        system = MegaScaleData.restore(job, store, catalog=catalog, filesystem=filesystem)
        systems.append(system)
        one_step(attempted)
        attempted += 1
        virtual_s += system.virtual_time_s()
        clock.mark()
    # A measured phase is one iteration: control op + step (the last one of
    # ``curriculum_churn`` also holds shutdown + restore).
    phases = clock.phases()
    tracer.step = SETUP_STEP

    # -- output checks (outside the timed region) ---------------------------------
    violations: list[str] = []
    digest = hashlib.sha256()
    step_digests: dict[int, str] = {}
    samples = tokens = delivered_tokens = 0
    for result in results:
        plan = result.plan
        step_digest = hashlib.sha256()
        samples += plan.total_samples()
        tokens += result.iteration.total_tokens
        if set(result.deliveries) != set(plan.fetching_ranks):
            violations.append(f"step {result.step}: deliveries do not cover the fetching ranks")
        manifest = system.delivery_manifest(result.step) or {}
        delivered = sum(len(ids) for ids in manifest.get("buckets", {}).values())
        if delivered != plan.total_samples():
            violations.append(
                f"step {result.step}: delivered {delivered} samples, "
                f"plan has {plan.total_samples()}"
            )
        for rank in sorted(result.deliveries):
            for piece in result.deliveries[rank].slices:
                delivered_tokens += piece.token_count
                step_digest.update(
                    b"%d,%d,%d,%d,%d;" % (
                        result.step, rank, piece.microbatch_index,
                        piece.token_count, piece.payload_bytes,
                    )
                )
        digest.update(step_digest.digest())
        # A step delivered twice is the one replayed after ``restore``: the
        # continuation must be byte-identical to the run it resumes.
        if step_digests.setdefault(result.step, step_digest.hexdigest()) != step_digest.hexdigest():
            violations.append(f"step {result.step}: replay after restore delivered other batches")
    audit = system.delivery_audit()
    if not audit["exactly_once"]:
        violations.append(f"delivery audit failed: {audit}")
    if audit["steps"] != workload.warmup + len(step_digests):
        violations.append(
            f"delivery audit covers {audit['steps']} steps, "
            f"{workload.warmup + len(step_digests)} were delivered"
        )
    stall_s = sum(result.data_stall_s for result in results)

    out = {
        "workload": workload.name,
        "seed": seed,
        "traced": traced,
        # Catalog build and deploy are interpreter-bound on every workload;
        # steps (warm-up included) are bound by what the workload declares.
        "setup_phases_s": [seconds for seconds, _ in phases[:setup_phases]],
        "setup_slowdown": [by["python"] for _, by in phases[:2]]
        + [by[workload.reference] for _, by in phases[2:setup_phases]],
        "intervals_ms": [seconds * 1e3 for seconds, _ in phases[setup_phases:]],
        "latencies_ms": latencies_ms,
        "slowdown": [by[workload.reference] for _, by in phases[setup_phases:]],
        "attempted": attempted,
        "failed": failed,
        "samples": samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_tokens_per_s": tokens / virtual_s,
        "sim_stall_share": stall_s / virtual_s,
        "sim_loader_mem_mb": loader_mem_bytes / 2**20,
        "delivery_digest": digest.hexdigest(),
        "violations": violations,
        "numpy": numpy.__version__,
    }
    if traced:
        counters = {
            "events": events_executed[0] - events_before,
            "actors_live_peak": actors_live_peak,
            "samples": samples,
            "delivered_tokens": delivered_tokens,
            "sim_plan_s": sum(result.plan_timings.total_s for result in results),
            "sim_transform_s": sum(result.loader_transform_s for result in results),
            "directives": sum(
                len(result.plan.scaling.directives)
                for result in results
                if result.plan.scaling is not None
            ),
            "spawns": sum(s.fleet.spawn_count() for s in systems),
            "retires": sum(s.fleet.retire_count() for s in systems),
            "rejections": sum(s.fleet.rejection_count() for s in systems),
            "peak_members": max(s.fleet.peak_members() for s in systems),
            "recoveries": sum(
                s.fault_manager.recovery_summary()["total_events"] for s in systems
            ),
            "sim_recovery_s": sum(
                s.fault_manager.recovery_summary()["total_latency_s"] for s in systems
            ),
            "live_keys_end": len(system.system.gcs.keys()),
            "timeline_events_end": len(system.system.timeline),
        }
        out["layers"] = layer_metrics(tracer, attempted, counters)
        if spans_path:
            with open(spans_path, "w", encoding="utf-8") as handle:
                json.dump(tracer.export(), handle)
    system.shutdown()
    return out


def layer_metrics(tracer: Tracer, steps: int, counters: dict) -> dict[str, float]:
    """The per-layer table of one traced round (measured-phase spans only)."""
    spans = tracer.spans
    selfs = self_times(spans)
    layer_names = list(LAYERS)
    layer_bit = {layer: 1 << index for index, layer in enumerate(layer_names)}
    calls = dict.fromkeys(layer_names, 0)
    busy = dict.fromkeys(layer_names, 0.0)
    self_time = dict.fromkeys(layer_names, 0.0)
    by_name: dict[str, list[float]] = {}
    # Layers open above each span, as a bit mask: a span adds to its layer's
    # busy time only when no ancestor belongs to the same layer, so nested
    # same-layer calls (tick -> call_actor, prepare -> refill) count once.
    open_layers = [0] * len(spans)
    root_of = [0] * len(spans)
    measured_spans = 0
    root_total = root_self = 0.0
    recovery_roots: set[int] = set()
    for index, (name_index, start, end, parent, step) in enumerate(spans):
        layer, name = tracer.names[name_index]
        bit = layer_bit[layer]
        above = open_layers[parent] if parent >= 0 else 0
        open_layers[index] = above | bit
        root_of[index] = root_of[parent] if parent >= 0 else index
        if step < 0:
            continue
        measured_spans += 1
        duration = end - start
        calls[layer] += 1
        self_time[layer] += selfs[index]
        if not above & bit:
            busy[layer] += duration
        by_name.setdefault(name, []).append(duration)
        if name == "MegaScaleData.run_step" and parent < 0:
            root_total += duration
            root_self += selfs[index]
        elif name == "MegaScaleData.recover_fleet_member":
            recovery_roots.add(root_of[index])

    def count(*names: str) -> int:
        return sum(len(by_name.get(name, ())) for name in names)

    def total(*names: str) -> float:
        return sum(sum(by_name.get(name, ())) for name in names)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics: dict[str, float] = {}
    for layer in layer_names:
        metrics[f"{layer}.calls_per_step"] = calls[layer] / steps
        metrics[f"{layer}.busy_ms_per_step"] = busy[layer] * 1e3 / steps
        metrics[f"{layer}.self_ms_per_step"] = self_time[layer] * 1e3 / steps

    saves = ("InMemoryCheckpointStore.save", "SqliteCheckpointStore.save",
             "SqliteCheckpointStore.save_many")
    collate = "collate_columns_with_positions"
    metrics.update({
        "core.framework.residual_share": ratio(root_self, root_total),
        "core.framework.set_mixture_ms_p50":
            _median(by_name.get("MegaScaleData.set_mixture", ())) * 1e3,
        "core.framework.save_checkpoint_ms_p50":
            _median(by_name.get("MegaScaleData.save_checkpoint", ())) * 1e3,
        "core.framework.recovery_step_ms_p50":
            _median(spans[root][2] - spans[root][1] for root in recovery_roots) * 1e3,
        "core.framework.restore_ms": total("MegaScaleData.restore") * 1e3,
        "core.step_pipeline.flushes": count("StepPipeline.flush"),
        "core.planner.samples_per_plan": ratio(counters["samples"], count("Planner.generate_plan")),
        "core.planner.sim_plan_s_per_step": counters["sim_plan_s"] / steps,
        "core.source_loader.samples_prepared_per_step": count("TransformPipeline.run") / steps,
        "core.source_loader.polls_per_ticket":
            ratio(count("SourceLoader.poll"), count("SourceLoader.prepare_async")),
        "core.source_loader.sim_transform_s_per_step": counters["sim_transform_s"] / steps,
        "transforms.pipeline.us_per_sample":
            ratio(total("TransformPipeline.run"), count("TransformPipeline.run")) * 1e6,
        "actors.gcs.live_keys_end": counters["live_keys_end"],
        "core.data_constructor.tokens_per_step": counters["delivered_tokens"] / steps,
        "transforms.microbatch.us_per_sample": ratio(total(collate), counters["samples"]) * 1e6,
        "actors.runtime.events_per_step": counters["events"] / steps,
        "actors.runtime.us_per_event":
            ratio(self_time["actors.runtime"], counters["events"]) * 1e6,
        "actors.runtime.actors_live_peak": counters["actors_live_peak"],
        "core.loader_fleet.spawns": counters["spawns"],
        "core.loader_fleet.retires": counters["retires"],
        "core.loader_fleet.rejections": counters["rejections"],
        "core.loader_fleet.peak_members": counters["peak_members"],
        "core.autoscaler.directives": counters["directives"],
        "core.fault_tolerance.recoveries": counters["recoveries"],
        "core.fault_tolerance.retries": count("FaultToleranceManager.sleep"),
        "core.fault_tolerance.sim_recovery_s_total": counters["sim_recovery_s"],
        "core.checkpoint.saves_per_step": count(*saves) / steps,
        "core.checkpoint.ms_per_save": ratio(total(*saves), count(*saves)) * 1e3,
        "metrics.telemetry.charges_per_step": count("MemoryLedger.charge") / steps,
        "metrics.telemetry.timeline_events_end": counters["timeline_events_end"],
        "trace.spans_per_step": measured_spans / steps,
    })
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="run one benchmark round (internal)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--spans", default=None, help="write the span list to this file")
    args = parser.parse_args(argv)
    result = run_round(
        WORKLOADS[args.workload], args.seed, bool(args.trace), args.quick, args.spans
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
