"""Architecture-level model of MegaScale-Data itself.

Used for large-cluster comparisons (Fig. 12, Fig. 17) where instantiating one
actor per source x shard for hundreds of simulated nodes would be wasteful:
the model computes the same per-node memory / fetch-latency metrics as the
baseline models, but with MegaScale-Data's structure — one Source Loader per
source (file state held once), one Data Constructor per DP group
(parallelism-aware sharing), per-source worker sizing from the AutoScaler and
cost-based load balancing.  Small-scale correctness of this model is checked
against the fully deployed actor implementation in the integration tests.
"""

from __future__ import annotations

import math

import numpy as np

from repro.baselines.base import (
    PER_SOURCE_STATE_BYTES,
    BaselineLoader,
    LoaderArchitecture,
)
from repro.core.autoscaler import ResourceBudget, SourceAutoPartitioner
from repro.core.balancing import WeightedItem, balance_items
from repro.core.source_loader import BUFFERED_METADATA_BYTES, WORKER_CONTEXT_BYTES
from repro.data.samples import SampleMetadata


class MegaScaleArchitectureModel(BaselineLoader):
    """MegaScale-Data evaluated with the same interface as the baselines."""

    architecture = LoaderArchitecture(
        name="megascale",
        client_per_rank=False,
        parallelism_aware=True,
        source_state_per_worker=False,
        remote_workers=True,
        caching=False,
        transformation_reordering=True,
        load_balancing=True,
    )

    def __init__(self, *args, cpu_budget_cores: float = 512.0, memory_budget_bytes: int = 2**42, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        partitioner = SourceAutoPartitioner()
        self.partition_plan = partitioner.partition(
            self.catalog,
            ResourceBudget(cpu_cores=cpu_budget_cores, memory_bytes=memory_budget_bytes),
        )

    # -- structure -------------------------------------------------------------------------------

    def loader_clients(self) -> int:
        """One Source Loader actor per source shard plus one constructor per DP group."""
        return self.partition_plan.total_actors() + self.mesh.size("DP")

    def workers_per_client(self) -> int:
        configs = self.partition_plan.configs.values()
        if not configs:
            return 1
        return max(1, int(round(np.mean([config.workers_per_actor for config in configs]))))

    # -- memory ------------------------------------------------------------------------------------

    def memory_breakdown(self) -> dict[str, float]:
        source_state = float(self.partition_plan.total_actors() * PER_SOURCE_STATE_BYTES)
        worker_context = float(self.partition_plan.total_workers() * WORKER_CONTEXT_BYTES)
        avg_raw = float(np.mean([source.avg_raw_bytes for source in self.catalog]))
        avg_decoded = float(
            np.mean(
                [
                    source.avg_raw_bytes * source.profile.memory_amplification
                    for source in self.catalog
                ]
            )
        )
        # Loaders stage compressed payloads (decode deferred to constructors);
        # constructors double-buffer one decoded, collated batch per DP group.
        samples_per_step = self.samples_per_dp_step * self.mesh.size("DP")
        loader_staging = float(2 * samples_per_step * (avg_raw + BUFFERED_METADATA_BYTES))
        constructor_staging = float(
            2 * self.mesh.size("DP") * self.samples_per_dp_step * avg_decoded
        )
        planner_state = 64.0 * 1024 * 1024
        return {
            "source_state": source_state,
            "worker_context": worker_context,
            "prefetch": loader_staging,
            "constructor": constructor_staging,
            "planner": planner_state,
        }

    # -- latency -------------------------------------------------------------------------------------

    def fetch_latency_s(self) -> float:
        latencies = np.array(
            [source.expected_transform_latency() for source in self.catalog], dtype=float
        )
        samples_per_source_step = (
            self.samples_per_dp_step * self.mesh.size("DP") / max(1, len(self.catalog))
        )
        per_source_wall_clock = []
        for source, latency in zip(self.catalog, latencies):
            config = self.partition_plan.config_for(source.name)
            workers = max(1, config.total_workers)
            effective = latency * 0.7  # decode deferred to constructors
            per_source_wall_clock.append(effective * samples_per_source_step / workers)
        loader_time = max(per_source_wall_clock) if per_source_wall_clock else 0.0
        planning_time = 0.002 + 1.0e-6 * self.samples_per_dp_step * self.mesh.size("DP")
        coordination = 0.01 * math.log2(max(2, self.mesh.world_size))
        return loader_time + planning_time + coordination

    # -- assignments -----------------------------------------------------------------------------------

    def build_assignments(
        self, samples: list[SampleMetadata], seed: int = 0
    ) -> list[list[list[SampleMetadata]]]:
        """Cost-balanced assignments (greedy binpack over quadratic token cost)."""
        dp = self.mesh.size("DP")
        items = [
            WeightedItem(key=sample, cost=float(sample.total_tokens) ** 2) for sample in samples
        ]
        buckets = balance_items(items, dp)
        assignments: list[list[list[SampleMetadata]]] = []
        for bucket_items in buckets.bins:
            bins = balance_items(bucket_items, self.num_microbatches)
            assignments.append([[item.key for item in bin_] for bin_ in bins.bins])
        return assignments
