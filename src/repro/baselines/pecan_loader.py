"""Pecan baseline: hybrid local/remote placement with transformation reordering.

Pecan places preprocessing workers on both the trainer hosts and remote CPU
nodes and automatically reorders transformations so cheaper/compressed
representations travel over the network.  That reduces transfer volume and
worker demand, but clients remain per-rank and per-worker source state is
still replicated, so the multisource memory redundancy persists.
"""

from __future__ import annotations

from repro.baselines.base import BaselineLoader, LoaderArchitecture


class PecanLoader(BaselineLoader):
    """Pecan-style hybrid placement + AutoOrder loading."""

    architecture = LoaderArchitecture(
        name="pecan",
        client_per_rank=True,
        parallelism_aware=False,
        source_state_per_worker=True,
        remote_workers=True,
        caching=False,
        transformation_reordering=True,
        load_balancing=False,
    )
