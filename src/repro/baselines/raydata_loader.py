"""Ray Data baseline: streaming-batch execution over a shared object store.

Ray Data centralises block storage in the object store (so decoded payloads
are not duplicated per worker) and streams batches to consumers, but each
trainer rank still runs an iterator with per-source datasource state, there is
no hybrid-parallelism awareness, and no cost-based load balancing across
ranks or microbatches.
"""

from __future__ import annotations

from repro.baselines.base import BaselineLoader, LoaderArchitecture


class RayDataLoader(BaselineLoader):
    """Ray Data streaming-batch loading."""

    architecture = LoaderArchitecture(
        name="ray_data",
        client_per_rank=True,
        parallelism_aware=False,
        source_state_per_worker=False,
        remote_workers=True,
        caching=False,
        transformation_reordering=False,
        load_balancing=False,
    )

    def memory_breakdown(self) -> dict[str, float]:
        breakdown = super().memory_breakdown()
        # The shared object store holds in-flight blocks once per node rather
        # than once per worker; keep a flat per-node object-store reservation.
        breakdown["object_store"] = float(self.mesh.num_nodes) * 512 * 1024 * 1024
        breakdown["prefetch"] = breakdown["prefetch"] * 0.5
        return breakdown
