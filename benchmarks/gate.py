"""CI gate: fail when a figure's throughput regresses vs its committed artifact.

``python benchmarks/gate.py <name>`` serves the four throughput gates that
used to be four copies of this program (``sched``, ``plan``, ``assembly``,
``recovery``).  Each CI leg re-runs its benchmark in smoke mode, which merges
a fresh ``smoke`` section into the committed ``BENCH_*.json`` artifact next
to the committed full-sweep section; the gate indexes the committed rows by
the figure's sweep point, compares one throughput metric of every fresh row
against the committed row at the same point and exits non-zero on a
regression beyond ``--threshold`` (default: 30%).

Where a figure measures a fast path against its reference in the same run
(``recovery``: bounded replay against full from-genesis replay), that same-run
speedup is printed as machine-independent context: a slow runner depresses
both paths equally, so a healthy speedup alongside a failed absolute check
points at the runner, not the code — while a collapsed speedup (<= 1.0) is a
real regression even if absolute numbers pass.  What differs between the
figures is the :data:`GATES` table.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable

from _regression import gate_ratio, load_sections, make_parser


def _replay_is_bounded(row: dict) -> str | None:
    if row["bounded_replay_plans"] > row["checkpoint_interval"]:
        return (
            f"bounded recovery replayed {row['bounded_replay_plans']} plans, "
            f"more than the checkpoint interval ({row['checkpoint_interval']})"
        )
    return None


@dataclass(frozen=True)
class Gate:
    artifact: str
    #: Committed full-sweep section the fresh ``smoke`` rows are compared to.
    section: str
    #: Environment variable that makes the figure's benchmark write ``smoke``.
    smoke_env: str
    #: Row fields identifying a sweep point.
    keys: tuple[str, ...]
    #: Gated throughput field (higher is better) and its printed name.
    metric: str
    label: str
    #: Printed name of the row's same-run ``speedup`` ("" = not measured);
    #: a speedup <= 1.0 fails, and ``collapsed`` says what that means.
    speedup_label: str = ""
    collapsed: str = ""
    #: Extra per-row bounds: each returns a failure message or ``None``.
    checks: tuple[Callable[[dict], str | None], ...] = ()


GATES = {
    "sched": Gate(
        "BENCH_fig20_sched.json", "scheduler_scalability", "BENCH_SCHED_SMOKE",
        ("actors",), "indexed_events_per_s", "indexed ev/s",
    ),
    "plan": Gate(
        "BENCH_fig22_planner.json", "planner_scalability", "BENCH_PLANNER_SMOKE",
        ("depth", "sources"), "columnar_plans_per_s", "columnar plans/s",
    ),
    "assembly": Gate(
        "BENCH_fig24_assembly.json", "assembly_sweep", "BENCH_ASSEMBLY_SMOKE",
        ("batch", "sources"), "columnar_samples_per_s", "columnar samples/s",
    ),
    "recovery": Gate(
        "BENCH_fig23_recovery.json", "recovery_latency", "BENCH_RECOVERY_SMOKE",
        ("steps",), "recoveries_per_s_bounded", "bounded recoveries/s",
        speedup_label="full-over-bounded speedup",
        collapsed="bounded recovery is no faster than full from-genesis replay in this run",
        checks=(_replay_is_bounded,),
    ),
}


def run_gate(gate: Gate, artifact, threshold: float) -> int:
    committed_section, fresh_section = load_sections(artifact, gate.section)
    if not committed_section or not fresh_section:
        return 1
    single = len(gate.keys) == 1

    def point_of(row: dict):
        return row[gate.keys[0]] if single else tuple(row[key] for key in gate.keys)

    committed = {point_of(row): row for row in committed_section.get("rows", [])}
    fresh_rows = fresh_section.get("rows", [])
    if not committed:
        print(f"committed {gate.section} section has no rows — nothing to compare")
        return 1
    if not fresh_rows:
        print(f"fresh smoke section has no rows — run the benchmark with {gate.smoke_env}=1")
        return 1

    failures = 0
    for row in fresh_rows:
        point = point_of(row)
        baseline = committed.get(point)
        if baseline is None:
            print(f"{'×'.join(gate.keys)}={point}: no committed baseline row, skipping")
            continue
        where = " ".join(f"{key}={row[key]}" for key in gate.keys)
        if not gate_ratio(
            f"{where} {gate.label}", row[gate.metric], baseline[gate.metric], threshold
        ):
            failures += 1
        if gate.speedup_label:
            print(
                f"{where}: same-run {gate.speedup_label} x{row['speedup']:.2f} "
                f"(committed sweep x{baseline['speedup']:.2f})"
            )
            if row["speedup"] <= 1.0:
                print(f"{where}: REGRESSION — {gate.collapsed}")
                failures += 1
        for check in gate.checks:
            message = check(row)
            if message:
                print(f"{where}: REGRESSION — {message}")
                failures += 1
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] not in GATES:
        print(f"usage: gate.py {{{','.join(GATES)}}} [--artifact PATH] [--threshold FRACTION]")
        return 2
    gate = GATES[argv[0]]
    args = make_parser(__doc__, gate.artifact).parse_args(argv[1:])
    return run_gate(gate, args.artifact, args.threshold)


if __name__ == "__main__":
    sys.exit(main())
