"""Shared machinery for the CI benchmark-regression gate scripts.

Each gate (the table-driven ``gate.py`` and the bespoke
``check_*_regression.py`` scripts) follows the same shape: the CI leg re-runs
its benchmark in smoke mode, which merges a fresh ``smoke`` section into the
committed ``BENCH_*.json`` artifact next to the committed full-sweep section;
the script then compares fresh numbers against committed ones and exits
non-zero past a threshold.  This module factors the shared pieces — argument
parsing, artifact/section loading with consistent error reporting, and the
ratio gate — so the scripts only encode *what* they compare.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path


def make_parser(description: str, default_artifact: str, default_threshold: float = 0.30) -> argparse.ArgumentParser:
    """Standard CLI of a regression gate: ``--artifact`` and ``--threshold``."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--artifact",
        type=Path,
        default=Path(default_artifact),
        help="merged benchmark artifact (committed sweep + fresh smoke rows)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=default_threshold,
        help="maximum tolerated fractional regression",
    )
    return parser


def load_sections(artifact: Path, committed_key: str, smoke_key: str = "smoke"):
    """Load (committed, fresh) sections; ``None`` for a missing one (reported).

    Returns a tuple; callers should exit non-zero when either side is None.
    """
    document = json.loads(artifact.read_text())
    committed = document.get(committed_key)
    fresh = document.get(smoke_key)
    if not committed:
        print(f"no committed {committed_key} section — nothing to compare")
    if not fresh:
        print(f"no fresh {smoke_key} section — run the benchmark in smoke mode first")
    return committed, fresh


def gate_ratio(label: str, fresh: float, reference: float, threshold: float) -> bool:
    """Print and gate ``fresh`` against ``reference``: ok iff within threshold.

    The gate passes when ``fresh >= (1 - threshold) * reference`` (higher is
    better for every gated metric in this suite).
    """
    ratio = fresh / reference if reference > 0 else float("inf")
    ok = ratio >= 1.0 - threshold
    status = "ok" if ok else "REGRESSION"
    print(f"{label}: fresh {fresh:,.1f} vs committed {reference:,.1f} (x{ratio:.2f}) — {status}")
    return ok
