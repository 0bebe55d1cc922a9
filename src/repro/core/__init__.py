"""MegaScale-Data core: the paper's primary contribution.

- :mod:`repro.core.dgraph` / :mod:`repro.core.place_tree` — the declarative
  data orchestration plane (Sec. 4).
- :mod:`repro.core.source_loader`, :mod:`repro.core.data_constructor`,
  :mod:`repro.core.planner` — the disaggregated preprocessing actors (Sec. 3).
- :mod:`repro.core.autoscaler` — multi-level source auto-partitioning and
  mixture-driven scaling (Sec. 5).
- :mod:`repro.core.fault_tolerance`, :mod:`repro.core.resharding` —
  operational adaptability (Sec. 6.1).
- :mod:`repro.core.framework` — the :class:`MegaScaleData` facade tying the
  components into the pull workflow; ``job``, ``deploy``, ``recovery``,
  ``degradation`` and ``durability`` hold the seams it was cut along.
"""

from repro.core.dgraph import DGraph
from repro.core.place_tree import ClientPlaceTree
from repro.core.plans import LoadingPlan, ScalingPlan
from repro.core.framework import MegaScaleData, TrainingJobSpec
from repro.core.step_pipeline import StepPipeline

__all__ = [
    "DGraph",
    "ClientPlaceTree",
    "LoadingPlan",
    "ScalingPlan",
    "MegaScaleData",
    "StepPipeline",
    "TrainingJobSpec",
]
