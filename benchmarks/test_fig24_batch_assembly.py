"""Fig. 24 — batch-assembly (collation) throughput vs batch size × source count.

The data path keeps prepared samples as token-length *columns* end to end and
collates with array kernels: first-fit on a max tournament tree
(O(samples · log bins); every sweep point collates one microbatch far above
``SCAN_MAX_SAMPLES``, so the small-microbatch scan never runs here), positions
as slices of one cached int32 ramp joined by a single concatenate, segment
tables from one stable argsort.  The kernel
builds positions and segment tables only when they are read (the Data
Constructor never does), so the timed region reads both: this figure measures
a *materialised* collation.

This benchmark sweeps batch size × source count (sources shape the length
mixture: each source draws from its own band, so more sources = a wider,
more realistic token-length distribution) and measures collation throughput
(samples/sec).  In the same run, each sweep point also drives a real
``DataConstructor`` over the same samples and checks the sha256 of its
per-rank ``RankDelivery`` slices on a pp=2 × cp=2 × tp=2 mesh against
:data:`DELIVERY_SHA256`, recorded from the per-sample reference collator and
mesh walk at ``a65cb3b`` (``tests/test_reference_pins.py`` pins the same
corpora's collations).

Results are written to ``BENCH_fig24_assembly.json``; the CI
``assembly-bench`` leg re-runs the middle sweep point in smoke mode and fails
on a >30% samples/sec regression against the committed artifact via
``gate.py assembly``.

Env knobs: ``BENCH_ASSEMBLY_SMOKE=1`` restricts the sweep to the middle point
(CI smoke — the smallest point's timed region is too short to gate on) and
writes the ``smoke`` section of the artifact.
"""

from __future__ import annotations

import gc
import hashlib
import os
import time

import numpy as np

from repro.core.assembly import PreparedColumns
from repro.core.columns import SampleColumns
from repro.core.data_constructor import DataConstructor
from repro.core.plans import ModulePlan
from repro.data.samples import Modality, SampleMetadata
from repro.metrics.report import MetricReport
from repro.parallelism.mesh import DeviceMesh
from repro.transforms.microbatch import collate_columns_with_positions

from .conftest import emit, write_bench_json

#: (batch samples, source count) sweep.  The smoke point must stay in the
#: full sweep so the CI gate can compare fresh smoke rows against committed
#: ones.
SWEEP_POINTS = ((2048, 4), (8192, 8), (32768, 16))
#: The smoke (CI) point is the *middle* sweep point: the smallest one's
#: timed region is a few milliseconds, which is too noisy to gate on.
SMOKE_POINTS = ((8192, 8),)
MAX_SEQUENCE_LENGTH = 2048
#: Best-of-N wall clocks per sweep point.
TIMED_REPS = 6
#: Microbatches per constructor plan in the delivery check.
DELIVERY_MICROBATCHES = 8
#: sha256 of each sweep point's per-rank deliveries (:func:`_deliveries_digest`),
#: recorded from the per-sample reference collator and mesh walk.
DELIVERY_SHA256 = {
    (2048, 4): "2d5074fd12b500148c5f11c9a03b228ffc426f6f42dc05bc05c45cae42d5ccfd",
    (8192, 8): "287f123760eba3d89915dc6eec3e188b0e155168923fb29dbb378e55024836db",
    (32768, 16): "40f688e960f095cd602975849650d7cbd8fbf2aabfcef6d72c436f977d0243a4",
}


def _smoke_mode() -> bool:
    return os.environ.get("BENCH_ASSEMBLY_SMOKE", "0") == "1"


def _make_batch(batch: int, num_sources: int) -> list[SampleMetadata]:
    """Deterministic sample metadata; each source owns a token-length band."""
    rng = np.random.default_rng(batch * 31 + num_sources)
    metas = []
    for index in range(batch):
        source = index % num_sources
        high = 64 + (1400 - 64) * (source + 1) // num_sources
        tokens = int(rng.integers(16, high))
        metas.append(
            SampleMetadata(
                sample_id=index + 1,
                source=f"src-{source}",
                modality=Modality.TEXT,
                text_tokens=tokens,
                raw_bytes=4 * tokens,
            )
        )
    return metas


def _time_collation(metas: list[SampleMetadata]) -> dict[str, float]:
    """Time the kernel's collation of one whole batch; return samples/s.

    Best-of-N wall clocks: each rep collects garbage first and the minimum is
    kept, which discards first-touch page faults and scheduler noise.
    """
    sample_ids = [meta.sample_id for meta in metas]
    lengths = np.array([meta.total_tokens for meta in metas], dtype=np.int64)
    collated = None
    wall_s = float("inf")
    for _ in range(TIMED_REPS):
        gc.collect()
        begin = time.perf_counter()
        collated = collate_columns_with_positions(sample_ids, lengths, MAX_SEQUENCE_LENGTH)
        # Reading the two lazy fields builds them, inside the timed region.
        assert collated.sequences is not None and collated.position_ids is not None
        wall_s = min(wall_s, time.perf_counter() - begin)
    assert len(collated.position_ids) == collated.total_tokens()
    return {
        "columnar_samples_per_s": len(metas) / wall_s,
        "total_tokens": collated.total_tokens(),
    }


def _delivery_plan(metas: list[SampleMetadata]) -> ModulePlan:
    """One bucket of ``DELIVERY_MICROBATCHES`` equal microbatches over ``metas``."""
    per_microbatch = len(metas) // DELIVERY_MICROBATCHES
    used = per_microbatch * DELIVERY_MICROBATCHES
    return ModulePlan(
        module="backbone",
        axis="DP",
        num_buckets=1,
        num_microbatches=DELIVERY_MICROBATCHES,
        rows=SampleColumns.from_samples(metas[:used]),
        offsets=list(range(0, used + 1, per_microbatch)),
        estimated_costs=[0.0] * DELIVERY_MICROBATCHES,
    )


def _deliveries_digest(metas: list[SampleMetadata]) -> str:
    """Drive a real constructor; sha256 of its per-rank slices, every field."""
    mesh = DeviceMesh(pp=2, dp=1, cp=2, tp=2, gpus_per_node=8)
    constructor = DataConstructor(
        bucket_index=0,
        mesh=mesh,
        dp_index=0,
        max_sequence_length=MAX_SEQUENCE_LENGTH,
    )
    payload = PreparedColumns(
        *np.array(
            [(m.sample_id, m.text_tokens, m.image_tokens, m.raw_bytes) for m in metas],
            dtype=np.int64,
        ).T
    )
    constructor.construct(0, _delivery_plan(metas), payload)
    deliveries = [
        (
            rank,
            [
                (
                    piece.rank,
                    piece.microbatch_index,
                    piece.token_count,
                    piece.payload_bytes,
                    piece.metadata_only,
                    piece.replicated_from,
                    sorted(piece.slice_info.items()),
                )
                for piece in constructor.get_batch(0, rank).slices
            ],
        )
        for rank in constructor.ranks_served(0)
    ]
    return hashlib.sha256(repr(deliveries).encode()).hexdigest()


def _sweep(points) -> list[dict[str, object]]:
    rows = []
    for batch, num_sources in points:
        metas = _make_batch(batch, num_sources)
        timing = _time_collation(metas)
        assert _deliveries_digest(metas) == DELIVERY_SHA256[batch, num_sources]
        rows.append({"batch": batch, "sources": num_sources, **timing})
    return rows


def test_fig24_batch_assembly(benchmark):
    smoke = _smoke_mode()
    points = SMOKE_POINTS if smoke else SWEEP_POINTS
    rows = benchmark(_sweep, points)

    report = MetricReport(
        title="Fig. 24 - collation throughput vs batch size x sources",
        columns=["batch", "sources", "tokens", "columnar samples/s"],
    )
    for row in rows:
        report.add_row(
            row["batch"],
            row["sources"],
            row["total_tokens"],
            round(row["columnar_samples_per_s"]),
        )
    emit(report)

    write_bench_json(
        "fig24_assembly",
        "smoke" if smoke else "assembly_sweep",
        {
            "rows": rows,
            "timed_reps": TIMED_REPS,
            "max_sequence_length": MAX_SEQUENCE_LENGTH,
        },
    )

