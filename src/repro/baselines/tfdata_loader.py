"""tf.data / tf.data service baseline.

tf.data colocates the input pipeline with the trainer by default and the
tf.data *service* disaggregates workers onto remote CPU hosts; both expose a
per-rank consumer that is unaware of CP/PP sharing and keep per-worker source
iterator state.  Modelled here in its service configuration (remote workers,
shared dispatcher) since that is the stronger variant the paper compares
against.
"""

from __future__ import annotations

from repro.baselines.base import BaselineLoader, LoaderArchitecture


class TfDataServiceLoader(BaselineLoader):
    """tf.data service-style disaggregated loading without LFM awareness."""

    architecture = LoaderArchitecture(
        name="tf_data",
        client_per_rank=True,
        parallelism_aware=False,
        source_state_per_worker=True,
        remote_workers=True,
        caching=False,
        transformation_reordering=False,
        load_balancing=False,
    )

    def loader_clients(self) -> int:
        # Remote workers serve data, but every rank still runs a consumer-side
        # iterator holding per-source dataset state.
        return self.mesh.world_size
