"""PyTorch DataLoader baseline: fully colocated, per-rank, per-worker state.

Every trainer rank runs its own ``DataLoader`` with a pool of worker
processes.  Each worker process independently opens file-access state for the
entire set of data sources and keeps its own prefetch buffer, so memory grows
with ``ranks x workers x sources`` — the worst case of both the source- and
parallelism-redundancy dimensions described in Sec. 2.3.
"""

from __future__ import annotations

from repro.baselines.base import BaselineLoader, LoaderArchitecture


class TorchColocatedLoader(BaselineLoader):
    """torch.utils.data.DataLoader-style colocated loading."""

    architecture = LoaderArchitecture(
        name="torch",
        client_per_rank=True,
        parallelism_aware=False,
        source_state_per_worker=True,
        remote_workers=False,
        caching=False,
        transformation_reordering=False,
        load_balancing=False,
    )
