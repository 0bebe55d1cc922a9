"""Common machinery for baseline dataloader architecture models.

A baseline is described by a :class:`LoaderArchitecture`: where loader clients
run (per rank or shared), how source file-access state is replicated, how many
workers each client sizes, and which optimisations (caching, transformation
reordering, worker autoscaling) apply.  From that description and the shared
substrate constants, :class:`BaselineLoader` derives the metrics reported in
Fig. 12: per-node loader memory, data fetch latency and the (unbalanced)
microbatch assignments fed to the training simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.source_loader import BUFFERED_METADATA_BYTES, WORKER_CONTEXT_BYTES
from repro.data.samples import SampleMetadata
from repro.data.sources import SourceCatalog
from repro.parallelism.mesh import DeviceMesh
from repro.storage.reader import SCHEMA_STATE_BYTES, SOCKET_STATE_BYTES
from repro.transforms.pipeline import TransformPipeline
from repro.utils.rng import derive_rng

#: Footer bytes charged per open source file (matches the synthetic writer's
#: footer sizing for a typical multi-row-group file).
TYPICAL_FOOTER_BYTES = 256 * 1024
#: Row-group read buffer kept live per open source.
TYPICAL_ROW_GROUP_BUFFER = 8 * 1024 * 1024

#: Per-open-source file access state (socket + schema + footer + buffer).
PER_SOURCE_STATE_BYTES = (
    SOCKET_STATE_BYTES + SCHEMA_STATE_BYTES + TYPICAL_FOOTER_BYTES + TYPICAL_ROW_GROUP_BUFFER
)


@dataclass(frozen=True)
class LoaderArchitecture:
    """Structural description of a dataloader system."""

    name: str
    #: Every rank runs its own loader client (colocated) vs shared remote service.
    client_per_rank: bool = True
    #: CP/PP-aware sharing: ranks in the same CP group / later PP stages reuse
    #: one client's fetch instead of loading independently.
    parallelism_aware: bool = False
    #: Each loader client/worker holds file-access state for every source.
    source_state_per_worker: bool = True
    #: Remote preprocessing workers (disaggregated CPU pool).
    remote_workers: bool = False
    #: Caches transformed samples (Cachew-style auto-caching).
    caching: bool = False
    #: Reorders transformations to ship compressed payloads (Pecan-style).
    transformation_reordering: bool = False
    #: Performs any load balancing of samples across ranks/microbatches.
    load_balancing: bool = False


@dataclass
class BaselineReport:
    """Metrics produced by evaluating a baseline on a workload."""

    name: str
    per_node_memory_bytes: float
    total_memory_bytes: float
    fetch_latency_s: float
    workers_per_client: int
    loader_clients: int
    details: dict[str, float] = field(default_factory=dict)


class BaselineLoader:
    """Evaluates one loader architecture on a workload description."""

    architecture = LoaderArchitecture(name="abstract")

    def __init__(
        self,
        catalog: SourceCatalog,
        mesh: DeviceMesh,
        samples_per_dp_step: int,
        num_microbatches: int = 4,
        gpus_per_node: int | None = None,
        target_iteration_time_s: float = 10.0,
    ) -> None:
        self.catalog = catalog
        self.mesh = mesh
        self.samples_per_dp_step = samples_per_dp_step
        self.num_microbatches = num_microbatches
        self.gpus_per_node = gpus_per_node or mesh.gpus_per_node
        self.target_iteration_time_s = target_iteration_time_s

    # -- derived sizes -----------------------------------------------------------------------

    def loader_clients(self) -> int:
        """Number of loader client instances across the cluster."""
        arch = self.architecture
        if not arch.client_per_rank:
            # A shared service runs one client per DP group plus a dispatcher.
            return self.mesh.size("DP") + 1
        if arch.parallelism_aware:
            # One client per DP group even when colocated.
            return self.mesh.size("DP")
        # Naive colocation: every rank (PP x DP x CP x TP) runs a full loader.
        return self.mesh.world_size

    def workers_per_client(self) -> int:
        """Worker processes per loader client (autoscaled to hide preprocessing)."""
        # Size workers so the slowest source's per-step transform time fits the
        # target iteration time (worst-case provisioning, Sec. 2.3).
        worst_latency = max(
            source.expected_transform_latency() for source in self.catalog
        )
        samples_per_client = self._samples_per_client_step()
        needed = worst_latency * samples_per_client / self.target_iteration_time_s
        return max(1, min(32, math.ceil(needed)))

    def _samples_per_client_step(self) -> int:
        clients = max(1, self.loader_clients())
        total = self.samples_per_dp_step * self.mesh.size("DP")
        if self.architecture.client_per_rank and not self.architecture.parallelism_aware:
            # Every rank in a DP group redundantly loads the group's samples.
            return self.samples_per_dp_step
        return max(1, total // clients)

    # -- memory model --------------------------------------------------------------------------

    def memory_breakdown(self) -> dict[str, float]:
        arch = self.architecture
        clients = self.loader_clients()
        workers = self.workers_per_client()
        num_sources = len(self.catalog)

        state_holders = clients * workers if arch.source_state_per_worker else clients
        source_state = float(state_holders * num_sources * PER_SOURCE_STATE_BYTES)
        worker_context = float(clients * workers * WORKER_CONTEXT_BYTES)

        avg_decoded = float(
            np.mean(
                [
                    source.avg_raw_bytes * source.profile.memory_amplification
                    for source in self.catalog
                ]
            )
        )
        if arch.transformation_reordering:
            avg_decoded = float(np.mean([source.avg_raw_bytes for source in self.catalog]))
        prefetch_depth = 2 * self.num_microbatches
        prefetch = float(
            clients * workers * prefetch_depth * (avg_decoded + BUFFERED_METADATA_BYTES)
        )

        cache = 0.0
        if arch.caching:
            cache = float(self.catalog.total_samples() * avg_decoded * 0.05)

        return {
            "source_state": source_state,
            "worker_context": worker_context,
            "prefetch": prefetch,
            "cache": cache,
        }

    def total_memory_bytes(self) -> float:
        return sum(self.memory_breakdown().values())

    def per_node_memory_bytes(self) -> float:
        nodes = max(1, self.mesh.num_nodes)
        if self.architecture.remote_workers:
            # Remote services add CPU pods; memory still reported per
            # accelerator-node equivalent for comparability (Fig. 12 does the
            # same by measuring every node in the job).
            nodes += max(1, nodes // 8)
        return self.total_memory_bytes() / nodes

    # -- latency model -----------------------------------------------------------------------------

    def fetch_latency_s(self) -> float:
        """Per-step data fetch latency exposed to one trainer client."""
        arch = self.architecture
        workers = self.workers_per_client()
        per_sample = [source.expected_transform_latency() for source in self.catalog]
        mean_latency = float(np.mean(per_sample))
        worst_latency = float(np.max(per_sample))
        samples = self._samples_per_client_step()

        # Pipelines are sized against the slowest source; the effective rate is
        # dominated by it unless caching/reordering mitigates the cost.
        effective = 0.5 * mean_latency + 0.5 * worst_latency
        if arch.caching:
            effective *= 0.9  # single-epoch: cache hits are rare
        if arch.transformation_reordering:
            effective *= 0.7
        latency = effective * samples / workers
        if arch.remote_workers:
            latency += 0.05  # dispatcher round trip
        if not arch.parallelism_aware:
            # Redundant fetches contend for the same storage/network path.
            redundancy = self.mesh.size("CP") * self.mesh.size("PP")
            latency *= 1.0 + 0.05 * (redundancy - 1)
        return latency

    # -- assignments -----------------------------------------------------------------------------------

    def build_assignments(
        self, samples: list[SampleMetadata], seed: int = 0
    ) -> list[list[list[SampleMetadata]]]:
        """Arrival-order (or at best shuffled) assignments per DP rank.

        Baselines without load balancing deal samples to DP ranks in arrival
        order, which preserves the skewed per-microbatch cost distribution
        that the Fig. 3 heatmaps exhibit.
        """
        dp = self.mesh.size("DP")
        rng = derive_rng(seed, "baseline", self.architecture.name)
        pool = list(samples)
        if self.architecture.load_balancing:
            pool.sort(key=lambda sample: sample.total_tokens, reverse=True)
        else:
            rng.shuffle(pool)
        assignments: list[list[list[SampleMetadata]]] = [
            [[] for _ in range(self.num_microbatches)] for _ in range(dp)
        ]
        per_dp = len(pool) // dp if dp else 0
        for dp_index in range(dp):
            chunk = pool[dp_index * per_dp : (dp_index + 1) * per_dp]
            per_mb = max(1, math.ceil(len(chunk) / self.num_microbatches))
            for position, sample in enumerate(chunk):
                mb_index = min(self.num_microbatches - 1, position // per_mb)
                assignments[dp_index][mb_index].append(sample)
        return assignments

    # -- report ---------------------------------------------------------------------------------------------

    def evaluate(self) -> BaselineReport:
        breakdown = self.memory_breakdown()
        return BaselineReport(
            name=self.architecture.name,
            per_node_memory_bytes=self.per_node_memory_bytes(),
            total_memory_bytes=self.total_memory_bytes(),
            fetch_latency_s=self.fetch_latency_s(),
            workers_per_client=self.workers_per_client(),
            loader_clients=self.loader_clients(),
            details=breakdown,
        )


def estimate_transform_pipeline_latency(catalog: SourceCatalog) -> dict[str, float]:
    """Per-source default-pipeline latency estimates (used in Fig. 5)."""
    estimates = {}
    for source in catalog:
        pipeline = TransformPipeline.for_modality(source.modality)
        metadata = SampleMetadata(
            sample_id=-1,
            source=source.name,
            modality=source.modality,
            text_tokens=int(source.avg_text_tokens),
            image_tokens=int(source.avg_image_tokens),
            # A catalog has no frame counts: guess one frame per 256 patches.
            video_frames=int(source.avg_image_tokens) // 256,
        )
        base, _ = pipeline.run(metadata)
        estimates[source.name] = base * source.profile.cost_per_token / max(
            1.0, _modality_reference(source)
        ) + source.profile.fixed_cost_s
    return estimates


def _modality_reference(source) -> float:
    from repro.data.synthetic import MODALITY_COST_PER_TOKEN

    return MODALITY_COST_PER_TOKEN[source.modality]
