"""CI gate: fail when planning throughput regresses vs the artifact.

The ``planner-bench`` CI leg runs ``test_fig22_planner_scalability`` in smoke
mode (``BENCH_PLANNER_SMOKE=1``), which merges a fresh ``smoke`` section into
``BENCH_fig22_planner.json`` next to the committed full-sweep
``planner_scalability`` section.  This script compares the fresh smoke
plans/sec against the committed row at the same (buffer depth, source count)
point and exits non-zero on a regression beyond the threshold (default: 30%).
"""

from __future__ import annotations

import sys

from _regression import gate_ratio, load_sections, make_parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser(__doc__, "BENCH_fig22_planner.json").parse_args(argv)

    committed_section, fresh_section = load_sections(
        args.artifact, "planner_scalability"
    )
    if not committed_section or not fresh_section:
        return 1
    committed = {
        (row["depth"], row["sources"]): row
        for row in committed_section.get("rows", [])
    }
    fresh_rows = fresh_section.get("rows", [])
    if not committed:
        print("committed planner_scalability section has no rows — nothing to compare")
        return 1
    if not fresh_rows:
        print("fresh smoke section has no rows — run the benchmark with BENCH_PLANNER_SMOKE=1")
        return 1

    failures = 0
    for row in fresh_rows:
        point = (row["depth"], row["sources"])
        baseline = committed.get(point)
        if baseline is None:
            print(f"depth×sources={point}: no committed baseline row, skipping")
            continue
        ok = gate_ratio(
            f"depth={point[0]} sources={point[1]} columnar plans/s",
            row["columnar_plans_per_s"],
            baseline["columnar_plans_per_s"],
            args.threshold,
        )
        if not ok:
            failures += 1

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
