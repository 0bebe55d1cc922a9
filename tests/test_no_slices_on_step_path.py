"""Guard: a Data Constructor stages per-rank delivery rows, not slice objects.

Each constructor packs its whole bucket with one collation (first fit
restarts at each microbatch), and ``RankLayout.deliveries`` sizes every
rank's share of every microbatch as one :class:`RankDelivery` per rank, with
per-microbatch ``token_counts`` and ``payload_bytes`` lists.  A rank's
:class:`ParallelSlice` objects are built only when ``RankDelivery.slices`` is
read, which nothing on the step path does.  These tests count instances
through a patched ``__init__`` over steady-state steps: no ``ParallelSlice``,
and one collation per constructor call, however many microbatches it packs.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro import MegaScaleData, TrainingJobSpec
from repro.core.data_constructor import DataConstructor
from repro.transforms import microbatch
from repro.transforms.parallelism import ParallelSlice
from test_no_records_on_step_path import JOBS, _counted_inits


@pytest.mark.parametrize("depth", [0, 2])
@pytest.mark.parametrize("job_name", sorted(JOBS))
def test_steps_build_no_slice_and_one_collation_per_bucket(job_name, depth, monkeypatch):
    # Whatever class the collation returns, counted from here on.
    collation = type(microbatch.collate_columns_with_positions([1], np.array([1]), 8))
    job = replace(JOBS[job_name](), prefetch_depth=depth, seed=0)
    assert job.num_microbatches > 1
    system = MegaScaleData.deploy(job)
    try:
        for _ in range(3):
            system.run_step(simulate=True)
        slices = _counted_inits(monkeypatch, ParallelSlice)
        collations = _counted_inits(monkeypatch, collation)
        constructs = []
        construct = DataConstructor.construct

        def counted(self, *args, **kwargs):
            constructs.append(1)
            return construct(self, *args, **kwargs)

        monkeypatch.setattr(DataConstructor, "construct", counted)
        results = [system.run_step(simulate=True) for _ in range(3)]
        assert all(result.deliveries for result in results)
        assert slices == []
        assert constructs and len(collations) == len(constructs)
    finally:
        system.shutdown()
