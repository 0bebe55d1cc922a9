"""Provisioning: storage, catalog, partitioning and the data-plane actors.

:func:`provision` is the body of :meth:`MegaScaleData.deploy`: it builds (or
adopts) the filesystem, checkpoint store, catalog and actor system, spawns
the Source Loaders, Data Constructors and the Planner, and returns the
parts the facade is constructed from.
"""

from __future__ import annotations

from repro.actors.node import NodeKind
from repro.actors.runtime import ActorSystem, ClusterSpec
from repro.core.autoscaler import (
    MixtureDrivenScaler,
    PartitionPlan,
    ResourceBudget,
    SourceAutoPartitioner,
)
from repro.core.checkpoint import (
    CheckpointStore,
    InMemoryCheckpointStore,
    NamespacedCheckpointStore,
    SqliteCheckpointStore,
)
from repro.core.data_constructor import DataConstructor
from repro.core.degradation import DegradationController
from repro.core.fault_tolerance import FaultToleranceManager
from repro.core.job import TrainingJobSpec
from repro.core.loader_fleet import loader_factory
from repro.core.place_tree import ClientPlaceTree
from repro.core.planner import Planner
from repro.core.source_loader import SourceLoader
from repro.data.mixture import MixtureSchedule
from repro.data.sources import SourceCatalog
from repro.data.synthetic import DATASET_GROUPS, build_source_catalog
from repro.errors import ConfigurationError
from repro.parallelism.mesh import DeviceMesh
from repro.storage.filesystem import SimulatedFileSystem
from repro.utils.units import GIB


def check_mixture_sources(mixture: MixtureSchedule, catalog: SourceCatalog) -> None:
    """Reject a mixture that names a source the catalog does not hold."""
    unknown = [name for name in mixture.source_names if name not in catalog]
    if unknown:
        raise ConfigurationError(f"mixture names sources outside the catalog: {unknown}")


def provision(
    job: TrainingJobSpec,
    catalog: SourceCatalog | None = None,
    filesystem: SimulatedFileSystem | None = None,
    cluster: ClusterSpec | None = None,
    checkpoint_store: CheckpointStore | None = None,
    system: ActorSystem | None = None,
) -> dict:
    """Provision ``job``'s data plane; returns ``MegaScaleData(**parts)``."""
    filesystem = filesystem or SimulatedFileSystem()
    if checkpoint_store is None:
        if job.checkpoint_backend == "sqlite":
            checkpoint_store = SqliteCheckpointStore(filesystem=filesystem)
        else:
            checkpoint_store = InMemoryCheckpointStore()
    checkpoint_store = scoped_store(job, checkpoint_store)
    if catalog is None:
        catalog = build_catalog(job, filesystem)
    if job.mixture is not None:
        check_mixture_sources(job.mixture, catalog)
    mesh = job.device_mesh()
    tree = ClientPlaceTree(mesh)
    if system is not None:
        cluster = cluster or system.cluster
    else:
        cluster = cluster or ClusterSpec(
            accelerator_nodes=max(1, mesh.num_nodes), cpu_pods=job.cpu_pods
        )
        system = ActorSystem(
            cluster,
            backend=job.backend,
            time_scale=job.wallclock_time_scale,
        )

    partition_plan = partition_sources(catalog, cluster)
    loader_handles = spawn_loaders(job, catalog, filesystem, system, partition_plan)
    constructor_handles = [
        spawn_constructor(job, mesh, system, dp_index)
        for dp_index in range(mesh.size("DP"))
    ]
    degradation = (
        DegradationController(job, catalog.names())
        if job.degraded_mode == "renormalize"
        else None
    )
    planner_handle = spawn_planner(
        job,
        tree,
        system,
        partition_plan,
        checkpoint_store,
        # Renormalize mode wraps an *explicit* job mixture with the
        # catch-up-aware schedule here; mixture-less jobs keep a bare
        # planner so ensure_sized_strategy installs the bounded sampling
        # strategy (with the degradation schedule as its mixture) exactly
        # like the non-degradable default path.
        mixture=degradation.schedule
        if degradation is not None and job.mixture is not None
        else None,
    )

    planner: Planner = planner_handle.instance()
    planner.register_loaders(loader_handles)

    fault_manager = FaultToleranceManager(system, loader_checkpoint_interval=job.replay_window)
    if job.enable_shadow_loaders:
        spawn_shadow_loaders(
            job, filesystem, system, partition_plan, loader_handles, fault_manager
        )
    return dict(
        job=job,
        system=system,
        filesystem=filesystem,
        catalog=catalog,
        partition_plan=partition_plan,
        planner_handle=planner_handle,
        loader_handles=loader_handles,
        constructor_handles=constructor_handles,
        tree=tree,
        fault_manager=fault_manager,
        checkpoint_store=checkpoint_store,
        degradation=degradation,
    )


def scoped_store(job: TrainingJobSpec, store: CheckpointStore) -> CheckpointStore:
    """Tenant-scope a shared checkpoint store (idempotent per namespace)."""
    if not job.namespace:
        return store
    if isinstance(store, NamespacedCheckpointStore) and store.prefix == job.namespace:
        return store
    return NamespacedCheckpointStore(store, job.namespace)


def build_catalog(job: TrainingJobSpec, filesystem: SimulatedFileSystem) -> SourceCatalog:
    spec = DATASET_GROUPS[job.dataset_group](
        num_sources=job.num_sources,
        samples_per_source=job.samples_per_source,
        seed=job.seed,
    )
    return build_source_catalog(spec, filesystem)


def partition_sources(catalog: SourceCatalog, cluster: ClusterSpec) -> PartitionPlan:
    total_cpu = (
        cluster.accelerator_nodes * cluster.accelerator_resources.cpu_cores
        + cluster.cpu_pods * cluster.cpu_pod_resources.cpu_cores
    )
    total_memory = (
        cluster.accelerator_nodes * cluster.accelerator_resources.memory_bytes
        + cluster.cpu_pods * cluster.cpu_pod_resources.memory_bytes
    )
    budget = ResourceBudget(
        cpu_cores=total_cpu * 0.5, memory_bytes=int(total_memory * 0.5)
    )
    partitioner = SourceAutoPartitioner()
    return partitioner.partition(catalog, budget)


def spawn_loaders(
    job: TrainingJobSpec,
    catalog: SourceCatalog,
    filesystem: SimulatedFileSystem,
    system: ActorSystem,
    partition_plan: PartitionPlan,
):
    handles = []
    for source in catalog:
        config = partition_plan.config_for(source.name)
        for actor_index in range(config.num_actors):
            handle = system.create_actor(
                loader_factory(
                    job, filesystem, source, config.workers_per_actor,
                    max(64, job.samples_per_dp_step * job.dp), actor_index, config.num_actors,
                ),
                name=job.scoped(f"loader/{source.name}/{actor_index}"),
                cpu_cores=config.workers_per_actor * 1.0,
                memory_bytes=config.estimated_memory_bytes,
                prefer=NodeKind.ACCELERATOR,
                # Loaders pipeline one prefetch ticket per lane: while a
                # ticket's chunks transform, the next step's ticket can
                # proceed concurrently (tf.data-style stage decoupling),
                # bounded by how many steps the pipeline keeps in flight.
                concurrency=job.prefetch_depth + 1,
                tenant=job.tenant,
            )
            handles.append(handle)
    return handles


def spawn_constructor(job: TrainingJobSpec, mesh: DeviceMesh, system: ActorSystem, dp_index: int):
    """One Data Constructor for bucket ``dp_index`` (deploy and reshard growth)."""
    return system.create_actor(
        lambda: DataConstructor(
            bucket_index=dp_index,
            mesh=mesh,
            dp_index=dp_index,
            max_sequence_length=job.max_sequence_length,
            staging_capacity=max(2, job.prefetch_depth + 2),
            # The sync workflow keeps legacy random step access;
            # prefetching requires strict in-order consumption.
            enforce_delivery_order=job.prefetch_depth > 0,
        ),
        name=job.scoped(f"constructor/dp{dp_index}"),
        cpu_cores=2.0,
        memory_bytes=2 * GIB,
        prefer=NodeKind.ACCELERATOR,
        tenant=job.tenant,
    )


def spawn_planner(
    job: TrainingJobSpec,
    tree: ClientPlaceTree,
    system: ActorSystem,
    partition_plan: PartitionPlan,
    checkpoint_store: CheckpointStore | None = None,
    mixture: MixtureSchedule | None = None,
):
    # ``mixture`` overrides the job's schedule (the degraded-mode
    # controller wraps it with catch-up-aware weights).
    mixture = mixture or job.mixture
    strategy = job.build_strategy(mixture)
    scaler = (
        MixtureDrivenScaler(partition_plan)
        if (job.enable_autoscaler and mixture is not None)
        else None
    )
    return system.create_actor(
        lambda: Planner(
            strategy=strategy,
            tree=tree,
            mixture=mixture,
            scaler=scaler,
            gcs=system.gcs,
            seed=job.seed,
            clock=system.clock,
            checkpoint_store=checkpoint_store,
            replay_window=job.replay_window,
            gcs_prefix=job.scoped("planner"),
        ),
        name=job.scoped("planner"),
        cpu_cores=4.0,
        memory_bytes=4 * GIB,
        prefer=NodeKind.CPU,
        tenant=job.tenant,
    )


def spawn_shadow_loaders(
    job, filesystem, system, partition_plan, loader_handles, fault_manager
) -> None:
    for handle in loader_handles:
        loader: SourceLoader = handle.instance()
        source = loader.source
        config = partition_plan.config_for(source.name)
        shadow = system.create_actor(
            loader_factory(
                job, filesystem, source, config.workers_per_actor,
                loader.buffer_size, loader.shard_index, loader.shard_count,
            ),
            name=job.scoped(f"shadow/{job.unscoped(handle.name)}"),
            cpu_cores=1.0,
            memory_bytes=config.estimated_memory_bytes,
            prefer=NodeKind.ACCELERATOR,
            concurrency=job.prefetch_depth + 1,
            tenant=job.tenant,
            # Failure domain: a shadow on its primary's node is dead
            # weight the moment that node crashes.  Never colocate when
            # an alternative host exists (single-node clusters fall back
            # with the placement flagged ``colocated``).
            anti_affinity=system.actor_node(handle.name),
        )
        fault_manager.register_shadow(handle, shadow)
