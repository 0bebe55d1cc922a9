"""Cachew baseline: tf.data service plus automatic caching/scaling decisions.

Cachew autoscale remote workers and auto-caches transformed datasets when that
is predicted profitable.  In single-epoch LFM training the cache rarely pays
off (Sec. 2.5), so the model keeps the caching memory cost and grants only a
small latency benefit.
"""

from __future__ import annotations

from repro.baselines.base import BaselineLoader, LoaderArchitecture


class CachewLoader(BaselineLoader):
    """Cachew-style caching remote loading service."""

    architecture = LoaderArchitecture(
        name="cachew",
        client_per_rank=True,
        parallelism_aware=False,
        source_state_per_worker=True,
        remote_workers=True,
        caching=True,
        transformation_reordering=False,
        load_balancing=False,
    )
