"""Shared fixtures and helpers for the benchmark harness.

Every module regenerates one table or figure from the paper's evaluation
section: it prints the corresponding rows/series (so they can be compared to
the published plot) and asserts the qualitative shape that the paper reports.
Run with ``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.core.place_tree import ClientPlaceTree
from repro.data.synthetic import build_source_catalog, coyo700m_like_spec, navit_like_spec
from repro.metrics.report import MetricReport
from repro.parallelism.mesh import DeviceMesh
from repro.storage.filesystem import SimulatedFileSystem


def pytest_collection_modifyitems(config, items):
    """Mark every benchmark test ``slow`` so ``-m "not slow"`` skips the suite.

    The hook receives the whole session's items, so restrict the marker to
    tests that live in this directory.
    """
    benchmarks_dir = str(Path(__file__).parent)
    for item in items:
        if str(item.fspath).startswith(benchmarks_dir):
            item.add_marker(pytest.mark.slow)


def emit(report: MetricReport) -> None:
    """Print a report under the benchmark output (visible with -s or on failure)."""
    print()
    print(report.to_text())


#: Repository root — the committed ``BENCH_*.json`` perf artifacts live here
#: so the perf trajectory is tracked across PRs (and uploaded by the CI legs).
REPO_ROOT = Path(__file__).resolve().parent.parent
#: Where a plain test run writes its artifacts (ignored by git).
OUT_DIR = Path(__file__).resolve().parent / "out"
#: Artifacts this test session has written so far.
_WRITTEN: set[Path] = set()


def write_bench_json(figure: str, section: str, payload: object) -> Path:
    """Merge ``payload`` under ``section`` into ``BENCH_<figure>.json``.

    Each benchmark test owns one section of its figure's artifact, so tests
    can run independently (e.g. one prefetch-depth leg of the CI matrix)
    without clobbering each other's numbers.

    A plain run leaves the tree clean: it writes to ``benchmarks/out/``.  The
    session's first write of a figure starts from the committed artifact, so
    the other sections are the committed baseline, never a stale local file,
    when a regression gate compares against it (point the gate at it with
    ``--artifact benchmarks/out/BENCH_<figure>.json``); the session's later
    writes of that figure merge into it.  Only ``BENCH_COMMIT=1``
    — set by CI for the whole workflow, and by hand to refresh a committed
    baseline — writes the tracked file in the repository root.
    """
    committed = REPO_ROOT / f"BENCH_{figure}.json"
    path = committed if os.environ.get("BENCH_COMMIT") == "1" else OUT_DIR / committed.name
    source = path if path in _WRITTEN else committed
    document: dict[str, object] = {}
    if source.exists():
        try:
            document = json.loads(source.read_text())
        except json.JSONDecodeError:
            document = {}
    document[section] = payload
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    _WRITTEN.add(path)
    return path


@pytest.fixture(scope="session")
def filesystem() -> SimulatedFileSystem:
    return SimulatedFileSystem()


@pytest.fixture(scope="session")
def coyo_catalog(filesystem):
    """A coyo700m-like group: 5 sources of short-caption image-text pairs."""
    return build_source_catalog(
        coyo700m_like_spec(num_sources=5, samples_per_source=400, seed=0), filesystem
    )


@pytest.fixture(scope="session")
def navit_catalog(filesystem):
    """A navit_data-like group: many heterogeneous multimodal sources."""
    return build_source_catalog(
        navit_like_spec(num_sources=60, samples_per_source=32, seed=0), filesystem
    )


@pytest.fixture(scope="session")
def mesh_288() -> DeviceMesh:
    """TP=4, PP=8, DP=9 — the paper's 288-GPU configuration."""
    return DeviceMesh(pp=8, dp=9, cp=1, tp=4, gpus_per_node=16)


@pytest.fixture(scope="session")
def mesh_576() -> DeviceMesh:
    """TP=4, PP=4, CP=4, DP=9 — the paper's 576-GPU configuration."""
    return DeviceMesh(pp=4, dp=9, cp=4, tp=4, gpus_per_node=16)


def sample_batch(catalog, filesystem, count, seed=0):
    """Draw `count` distinct sample metadata records round-robin across a catalog.

    The ``seed`` rotates each source's read cursor so different benchmark steps
    see different (but deterministic) batches.  Raises if the catalog does not
    hold enough distinct samples.
    """
    from repro.data.sources import SourceCursor

    total = catalog.total_samples()
    if count > total:
        raise ValueError(f"requested {count} samples but the catalog only holds {total}")
    start_fraction = (seed % 97) / 97.0
    cursors = [
        SourceCursor(source, filesystem, start_fraction=start_fraction) for source in catalog
    ]
    remaining = {source.name: source.num_samples for source in catalog}
    samples = []
    index = 0
    while len(samples) < count:
        cursor = cursors[index % len(cursors)]
        if remaining[cursor.source.name] > 0:
            samples.append(cursor.next_metadata())
            remaining[cursor.source.name] -= 1
        index += 1
    return samples


def tree_for(mesh: DeviceMesh) -> ClientPlaceTree:
    return ClientPlaceTree(mesh)
