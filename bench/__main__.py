"""``python3 -m bench``: the end-to-end real-time benchmark.

Two ways to run it (details in ``bench/README.md``):

* ``python3 -m bench`` — the report: every workload, ``--repeats`` times
  round-robin, then one traced run per workload; prints every end-to-end
  metric and the per-layer table by name with units, checks the outputs and
  writes ``bench/out/results.json`` and ``bench/out/trace_<workload>.json``.
* ``python3 -m bench --workload W --seed N --seconds T --trace 0|1`` — one
  run of one workload, as the driver behind ``BENCHMARK.json`` calls it; the
  last line of standard output is one JSON object.

A *run* fills ``--seconds`` with *rounds*: each round is a fresh interpreter
that sets the workload up and measures its fixed number of steps
(``bench/round.py``).  Metrics are medians over a run's rounds; step
latencies are pooled over them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
#: A round takes 3-6 s here; far beyond that something hangs.
ROUND_TIMEOUT_S = 150
#: Deterministic outputs of a round: equal on every round of a (workload, seed).
SIM_METRICS = ("sim_tokens_per_s", "sim_stall_share", "sim_loader_mem_mb")
EXACT = (*SIM_METRICS, "delivery_digest")
#: Workload pairs that must deliver byte-identical batches for one seed.
SAME_DIGEST = (("vlm_sync", "vlm_prefetch"),)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- running rounds ---------------------------------------------------------------


def run_round(workload: str, seed: int, traced: bool, quick: bool, spans_path: Path | None) -> dict:
    """Run one round in a fresh interpreter and return its result."""
    command = [sys.executable, "-m", "bench.round", "--workload", workload,
               "--seed", str(seed), "--trace", str(int(traced))]
    if quick:
        command.append("--quick")
    if spans_path is not None:
        command += ["--spans", str(spans_path)]
    path = [str(ROOT / "src"), str(ROOT)]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    # One process, one thread: keep numpy's BLAS pool out of the measurement.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: round exceeded {ROUND_TIMEOUT_S}s") from exc
    sys.stderr.write(done.stderr)
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchError(f"{workload}: round exited with code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def collect(workload: str, seed: int, seconds: float, traced: bool, quick: bool) -> list[dict]:
    """One run: rounds of ``workload`` until ``seconds`` have passed.

    A traced run alternates untraced and traced rounds (at least one of
    each), so the tracing overhead is the ratio of neighbours in time.  A
    round is started only while at least half of it fits into the time left,
    so a run lasts ``seconds`` give or take half a round.
    """
    start = time.perf_counter()
    rounds: list[dict] = []
    while True:
        trace_round = traced and len(rounds) % 2 == 1
        spans_path = OUT / f"trace_{workload}.json" if trace_round and len(rounds) == 1 else None
        rounds.append(run_round(workload, seed, trace_round, quick, spans_path))
        elapsed = time.perf_counter() - start
        enough = len(rounds) >= (2 if traced else 1)
        if enough and (quick or elapsed + 0.5 * elapsed / len(rounds) >= seconds):
            return rounds


# -- aggregation ------------------------------------------------------------------


def quiet(rounds: list[dict], key: str, slowdown: str) -> list[float]:
    """Phase times at nominal machine speed: element-wise minimum over rounds.

    Each reading is first divided by the machine's slowdown around that phase
    (the reference kernel of ``bench/round.py``).  Every round of a
    (workload, seed) executes the same phases and steps, and what is left of
    the interference only ever adds time, so the minimum over rounds of
    phase ``i`` is the estimate of its undisturbed cost.
    """
    return [
        min(column)
        for column in zip(*([x / f for x, f in zip(r[key], r[slowdown])] for r in rounds))
    ]


def summarize(rounds: list[dict]) -> dict:
    """Aggregate the rounds of one (workload, seed) into named metrics."""
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    violations = [v for r in rounds for v in r["violations"]]
    first = rounds[0]
    for key in EXACT:
        if any(r[key] != first[key] for r in rounds):
            violations.append(
                f"{key} differs between rounds of one seed: "
                f"{sorted({str(r[key]) for r in rounds})}"
            )
    wall_s = sum(quiet(plain, "intervals_ms", "slowdown")) / 1e3
    latencies = quiet(plain, "latencies_ms", "slowdown")
    metrics = {
        "setup_s": sum(quiet(plain, "setup_phases_s", "setup_slowdown")),
        "steps_per_s": (first["attempted"] - first["failed"]) / wall_s,
        "samples_per_s": first["samples"] / wall_s,
        "step_ms_p50": statistics.median(latencies),
        "step_ms_p90": statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    for key in SIM_METRICS:
        metrics[key] = first[key]
    #: The rounds' wall clock as it was, neither calibrated nor filtered.
    raw_rates = sorted(r["attempted"] / (sum(r["intervals_ms"]) / 1e3) for r in plain)
    summary = {
        "workload": first["workload"],
        "seed": first["seed"],
        "rounds": len(rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "delivery_digest": first["delivery_digest"],
        "violations": violations,
        "numpy": first["numpy"],
        "metrics": metrics,
        "step_samples": len(latencies),
        "raw_steps_per_s": raw_rates,
    }
    if traced:
        layers = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        layers["trace.overhead_share"] = (
            sum(quiet(traced, "intervals_ms", "slowdown")) / 1e3 / wall_s - 1.0
        )
        summary["layers"] = layers
    return summary


def check_pairs(summaries: dict[str, dict]) -> list[str]:
    """Cross-workload output check: depth 0 and depth 2 deliver the same bytes."""
    problems = []
    for a, b in SAME_DIGEST:
        if a in summaries and b in summaries:
            if summaries[a]["delivery_digest"] != summaries[b]["delivery_digest"]:
                problems.append(f"delivery_digest of {a} and {b} differ")
    return problems


# -- reporting --------------------------------------------------------------------


def environment() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def print_summary(summary: dict, spec: dict) -> None:
    name = summary["workload"]
    print(f"\n== {name} (seed {summary['seed']}, {summary['rounds']} rounds, "
          f"{summary['attempted']} steps attempted, {summary['failed']} failed, "
          f"failed_step_share {summary['failed'] / summary['attempted']:.4f})")
    print(f"   delivery_digest {summary['delivery_digest']}")
    for problem in summary["violations"]:
        print(f"   VIOLATION: {problem}")
    rates = summary["raw_steps_per_s"]
    print(f"   steps/s of whole rounds, raw wall clock: min {rates[0]:.4g}, "
          f"median {statistics.median(rates):.4g}, max {rates[-1]:.4g}")
    print(f"   {'end-to-end metric':<22}{'unit':<8}{'value':>16}   {'better':<8}bound")
    for metric in spec["end_to_end"]:
        key = metric["name"]
        print(f"   {key:<22}{metric['unit']:<8}{summary['metrics'][key]:>16.6g}   "
              f"{metric['better']:<8}{metric['bound']}")
    print(f"   (step_ms_*: over {summary['step_samples']} steps, each the minimum of "
          f"{len(rates)} untraced rounds)")
    if "layers" in summary:
        print_layers(summary["layers"], spec)


def print_layers(layers: dict, spec: dict) -> None:
    suffixes = (".calls_per_step", ".busy_ms_per_step", ".self_ms_per_step")
    names = sorted(
        (key[: -len(suffixes[2])] for key in layers if key.endswith(suffixes[2])),
        key=lambda layer: -layers[layer + suffixes[2]],
    )
    total_self = sum(layers[layer + suffixes[2]] for layer in names) or 1.0
    print(f"   {'layer (by self time)':<24}{'calls/step':>12}{'busy ms/step':>14}"
          f"{'self ms/step':>14}{'self share':>12}")
    for layer in names:
        self_ms = layers[layer + suffixes[2]]
        print(f"   {layer:<24}{layers[layer + suffixes[0]]:>12.1f}"
              f"{layers[layer + suffixes[1]]:>14.3f}{self_ms:>14.3f}{self_ms / total_self:>12.1%}")
    print(f"   core.framework.residual_share = {layers['core.framework.residual_share']:.4f} "
          f"(root run_step time not inside any traced child); "
          f"trace.overhead_share = {layers['trace.overhead_share']:.4f}")
    units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    for key in sorted(layers):
        if not key.endswith(suffixes):
            print(f"   {key:<48}{layers[key]:>16.6g} {units.get(key, '')}")


def contract_line(summary: dict, spec: dict, traced: bool) -> str:
    """The one-line result the driver behind ``BENCHMARK.json`` reads."""
    listed = spec["per_layer"] if traced else spec["end_to_end"]
    values = summary["layers"] if traced else summary["metrics"]
    return json.dumps({
        "correct": not summary["violations"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in listed
        },
    })


# -- modes ------------------------------------------------------------------------


def report(args, spec: dict, selected: list[str]) -> tuple[dict[str, dict], list[str]]:
    """The full set: ``--repeats`` round-robin passes, then a traced run each."""
    rounds: dict[str, list[dict]] = defaultdict(list)
    for repeat in range(args.repeats):
        # Round-robin (A B C D A B C D ...): this box drifts on a ~10 s
        # timescale, so every workload should sample every drift phase.
        for workload in selected:
            print(f"[pass {repeat + 1}/{args.repeats}] {workload} ...", file=sys.stderr)
            rounds[workload] += collect(workload, args.seed, args.seconds, False, args.quick)
    for workload in selected:
        print(f"[traced] {workload} ...", file=sys.stderr)
        rounds[workload] += collect(workload, args.seed, args.seconds, True, args.quick)
    summaries = {workload: summarize(rounds[workload]) for workload in selected}
    problems = check_pairs(summaries)
    for workload in selected:
        print_summary(summaries[workload], spec)
        problems += [f"{workload}: {v}" for v in summaries[workload]["violations"]]
        if summaries[workload]["failed"]:
            problems.append(f"{workload}: {summaries[workload]['failed']} steps failed")
    return summaries, problems


def selfcheck(first: dict[str, dict], second: dict[str, dict], spec: dict) -> list[str]:
    """A/A: two sets of runs of the same code must agree within the bounds."""
    problems = []
    print("\n== selfcheck: relative difference of two identical sets, against the bound")
    for workload in first:
        for metric in spec["end_to_end"]:
            key = metric["name"]
            a, b = first[workload]["metrics"][key], second[workload]["metrics"][key]
            difference = abs(b - a) / abs(a)
            verdict = "ok" if difference <= metric["bound"] else "EXCEEDS"
            print(f"   {workload:<20}{key:<20}{a:>14.6g}{b:>14.6g}"
                  f"{difference:>9.2%}  bound {metric['bound']:<5} {verdict}")
            if verdict != "ok":
                problems.append(f"selfcheck: {workload}.{key} differs by {difference:.2%}")
        for key in EXACT:
            a, b = ({**s["metrics"], **s}[key] for s in (first[workload], second[workload]))
            if a != b:
                problems.append(f"selfcheck: {workload}.{key} is not exact: {a} != {b}")
    return problems


def selftest(spec: dict) -> None:
    """Tracer arithmetic, and BENCHMARK.json against the names the code emits."""
    sys.path.insert(0, str(ROOT / "src"))  # the workloads import the package under test
    from bench.round import layer_metrics
    from bench.tracer import Tracer, selftest as tracer_selftest
    from bench.workloads import WORKLOADS

    tracer_selftest()
    listed = [w["name"] for w in spec["workloads"]]
    if listed != list(WORKLOADS):
        raise AssertionError(f"BENCHMARK.json workloads {listed} != {list(WORKLOADS)}")
    emitted = sorted([*layer_metrics(Tracer(), 1, defaultdict(int)), "trace.overhead_share"])
    per_layer = sorted(metric["name"] for metric in spec["per_layer"])
    if per_layer != emitted:
        raise AssertionError(
            f"BENCHMARK.json per_layer differs from the traced output: "
            f"{sorted(set(per_layer) ^ set(emitted))}"
        )
    end_to_end = {metric["name"] for metric in spec["end_to_end"]}
    produced = {"setup_s", "steps_per_s", "samples_per_s", "peak_rss_mb",
                "step_ms_p50", "step_ms_p90", *SIM_METRICS}
    if end_to_end != produced:
        raise AssertionError(f"BENCHMARK.json end_to_end differs: {end_to_end ^ produced}")
    print("selftest ok")


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names, help="only this workload (default: all)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="one run, machine-readable: 0 end-to-end metrics, 1 per-layer")
    parser.add_argument("--repeats", type=int, default=3, help="round-robin passes of the report")
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: one short round per run, one pass")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the set twice and compare against the bounds")
    parser.add_argument("--selftest", action="store_true",
                        help="check the tracer arithmetic and BENCHMARK.json's names")
    args = parser.parse_args(argv)
    if args.quick:
        # The traced pass already holds one untraced round per workload.
        args.repeats = 0
    if args.selftest:
        selftest(spec)
        return 0
    if not (ROOT / "src" / "repro").is_dir():
        print("bench: src/repro not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    selected = [args.workload] if args.workload else names

    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        summary = summarize(collect(args.workload, args.seed, args.seconds,
                                    bool(args.trace), args.quick))
        print_summary(summary, spec)
        print(contract_line(summary, spec, bool(args.trace)))
        return 0 if not summary["violations"] else 1

    summaries, problems = report(args, spec, selected)
    results = {"environment": environment(), "seed": args.seed, "summaries": summaries}
    if args.selfcheck:
        second, more = report(args, spec, selected)
        problems += more + selfcheck(summaries, second, spec)
        results["selfcheck_summaries"] = second
    (OUT / "results.json").write_text(json.dumps(results, indent=1), encoding="utf-8")
    for problem in problems:
        print(f"FAILED: {problem}")
    print("\nall output checks passed" if not problems else f"\n{len(problems)} checks failed")
    return 1 if problems else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as error:
        print(f"bench: {error}", file=sys.stderr)
        sys.exit(3)
