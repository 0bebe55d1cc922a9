"""Cost models: per-sample load/memory costs and the latency-provider interface.

Two families of models live here:

1. **Per-sample cost models** registered via the ``cost`` primitive
   (Sec. 4.2), which map the selected rows (a
   :class:`~repro.core.columns.SampleColumns`) to per-row latency and memory
   arrays: "we model the encoder's cost as a function of the image
   sequence length, the dimensions of the embedding and MLP layers, and the
   model's depth.  The cost for the language backbone is likewise modeled as
   a function of the total sequence length and key architectural parameters,
   such as the number of experts per token, vocabulary size, and hidden layer
   dimensions."  The models here follow exactly that form and are validated
   against the training simulator in the Fig. 19 benchmark.

2. **The latency-provider interface** consumed by the actor runtime's
   virtual-clock event engine.  A latency provider is any object exposing

   .. code-block:: python

       def call_duration_s(self, actor, method, result) -> float: ...

   The event engine calls it once per booked chunk of an executed deferred
   call (one chunk for most calls, one per ``POLL_CHUNK`` rows for a loader
   ticket), *after* the call ran, handing it the target actor instance, the
   method name and the call's return value; the provider answers with the
   chunk's virtual duration in seconds.  Deriving durations from results
   keeps a single source of truth: the same simulated latencies the
   components already compute for reporting (planner
   :class:`~repro.core.planner.PlanTimings`, loader worker-amortised wall
   clock, constructor collate seconds, trainer compute windows) are what
   occupies each actor on the shared clock.
   :class:`DataPlaneLatencyProvider` is the canonical implementation wired
   in by :meth:`repro.core.framework.MegaScaleData.deploy`; swap in a custom
   provider (``system.latency_provider = ...``) to model different hardware
   without touching any actor code.
"""

from __future__ import annotations

import threading
from bisect import bisect_right

import numpy as np

from repro.core.columns import SampleColumns
from repro.training.flops import encoder_sample_flops, sequence_backbone_flops
from repro.training.models import BackboneConfig, EncoderConfig
from repro.training.simulator import BACKWARD_MULTIPLIER, GpuSpec, IterationResult


def capacity_split_duration_s(
    amortized_s: float, start_s: float, lane_ends_s: tuple[float, ...] | list[float]
) -> float:
    """Fair-share duration of a chunk competing with in-flight lane work
    (``lane_ends_s`` ascending, as the engines keep them).

    A loader's worker pool has a fixed aggregate throughput; ``amortized_s``
    is the chunk's wall clock when the *whole* pool serves it.  While ``b``
    other lanes are still busy, the new chunk only owns ``1/(b+1)`` of the
    pool, so it progresses at that fraction of full speed; each time a busy
    lane drains (its end instant passes) the share grows.  Integrating the
    piecewise-constant rate from the chunk's start gives its stretched
    duration — work-conserving (fully overlapped tickets split the pool
    exactly) without the naive ``×b`` overshoot for barely-overlapping ones.

    One-sided by construction: tickets already in flight keep the share they
    were booked with (the engine cannot retroactively stretch executed
    events), so a new arrival yields to them rather than slowing them down.
    """
    remaining = float(amortized_s)
    if remaining <= 0.0:
        return 0.0
    ends = lane_ends_s[bisect_right(lane_ends_s, start_s):]
    now = float(start_s)
    busy = len(ends)
    for index, end in enumerate(ends):
        share = 1.0 / (busy - index + 1)
        window = (end - now) * share
        if window >= remaining:
            return now + remaining / share - start_s
        remaining -= window
        now = end
    return now + remaining - start_s


class DataPlaneLatencyProvider:
    """Derives virtual durations for every data-plane (and trainer) actor call.

    This is the single place that maps a call's *result* to the virtual time
    the call occupied its actor:

    ====================  ==================  =====================================
    actor role            method              virtual duration
    ====================  ==================  =====================================
    ``planner``           ``generate_plan``   :attr:`PlanTimings.total_s` (gather +
                                              compute + broadcast) of that plan
    ``source_loader``     ``poll``            per chunk of the ticket, its entry of
                                              ``chunk_wall_clock_s``, stretched by
                                              lane contention at the chunk's start
                                              under the capacity-split lane model;
                                              the accept and hand-off the call
                                              carries add nothing
    ``data_constructor``  ``construct``       ``collate_seconds`` of the step
    ``trainer``           ``train_step``      the iteration's compute window
                                              (iteration time minus exposed fetch)
    (anything else)       (any)               0 — only the RPC latency applies
    ====================  ==================  =====================================

    Methods that merely move references (the ``prepared/`` GCS hand-off,
    ``get_batch``, buffer-metadata gathers) are deliberately free: their
    cost is the simulated RPC latency the runtime already charges.  The
    hand-off rides a ticket's poll, so it costs no RPC of its own either.
    ``construct`` is charged the token-proportional ``collate_seconds``, a
    modelled quantity; the collation kernels' real (Python wall-clock) speed
    is measured by the fig24 benchmark instead.

    **Lane model.**  A loader actor exposes ``prefetch_depth + 1`` execution
    lanes so its worker pool can pipeline several step tickets, and the
    pool's throughput divides across concurrently busy lanes (capacity
    split): the event engine reports the busy lanes' end instants at a
    chunk's start (via the ``wants_lane_context`` protocol flag), and the
    chunk's amortised wall clock is stretched by integrating its fair pool
    share over those windows (:func:`capacity_split_duration_s`) —
    overlapping tickets split the pool, conserving aggregate throughput.
    """

    #: Protocol flag read by the event engine: providers that set this
    #: receive the chunk's start instant (``start_s``), the number of
    #: occupied lanes including the one the chunk takes (``busy_lanes``),
    #: the busy lanes' end instants (``lane_ends_s``, ascending), the
    #: actor's ``role`` and the chunk's index (``chunk``) as keyword
    #: arguments.
    wants_lane_context = True

    def call_duration_s(
        self,
        actor: object,
        method: str,
        result: object,
        busy_lanes: int = 1,
        start_s: float = 0.0,
        lane_ends_s: tuple[float, ...] = (),
        role: str = "actor",
        chunk: int = 0,
    ) -> float:
        if role == "planner" and method == "generate_plan":
            timings = getattr(getattr(actor, "stats", None), "latest_timings", None)
            return float(timings().total_s) if timings is not None else 0.0
        if role == "source_loader" and method == "poll" and isinstance(result, dict):
            chunks = result.get("chunk_wall_clock_s")
            amortized = float(chunks[chunk]) if chunks else 0.0
            return capacity_split_duration_s(amortized, start_s, lane_ends_s)
        if role == "data_constructor" and method == "construct" and isinstance(result, dict):
            return float(result.get("collate_seconds", 0.0))
        if role == "trainer" and isinstance(result, IterationResult):
            return max(0.0, result.iteration_time_s - result.exposed_fetch_time_s)
        return 0.0


class LatencyRecorder:
    """Per-(role, method) record of measured call latencies.

    The wallclock engine appends one sample per booked chunk of a completed
    submitted call — the chunk's full occupancy in clock units: real body
    time (first chunk) plus the modelled (slept) latency — from concurrent
    lane threads, hence the lock.
    The samples feed :class:`CalibratedLatencyProvider`, closing the
    measure → calibrate → simulate loop (the fig19 cost-model extension).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._samples: dict[tuple[str, str], list[float]] = {}

    def record(self, role: str, method: str, duration_s: float) -> None:
        with self._lock:
            self._samples.setdefault((role, method), []).append(
                max(0.0, float(duration_s))
            )

    def samples(self) -> dict[tuple[str, str], list[float]]:
        """A snapshot copy of every recorded sample list."""
        with self._lock:
            return {key: list(values) for key, values in self._samples.items()}

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-key count/mean/total (keys rendered ``role.method``)."""
        out: dict[str, dict[str, float]] = {}
        for (role, method), values in sorted(self.samples().items()):
            out[f"{role}.{method}"] = {
                "count": float(len(values)),
                "mean_s": sum(values) / len(values) if values else 0.0,
                "total_s": sum(values),
            }
        return out


class CalibratedLatencyProvider:
    """Replays measured wall latencies as virtual durations.

    Drop-in ``latency_provider`` for the virtual backend: each
    ``(role, method)`` key replays its recorded samples FIFO — a virtual
    rerun of the same job books the same chunks, so chunk *k* gets the
    latency chunk *k* actually took on the wallclock run — then falls back to
    the key's mean (runs longer than the recording), and to 0 for keys never
    measured.  ``wants_lane_context`` is deliberately False: the measured
    occupancy already includes any lane-contention stretch the real run
    experienced, so applying the capacity-split model again would double
    count contention.
    """

    wants_lane_context = False

    def __init__(self, samples: dict[tuple[str, str], list[float]]) -> None:
        self._samples = {key: list(values) for key, values in samples.items()}
        self._cursor: dict[tuple[str, str], int] = {}
        self._means = {
            key: (sum(values) / len(values) if values else 0.0)
            for key, values in self._samples.items()
        }

    def call_duration_s(self, actor: object, method: str, result: object) -> float:
        key = (getattr(type(actor), "role", "actor"), method)
        values = self._samples.get(key)
        if not values:
            return 0.0
        index = self._cursor.get(key, 0)
        if index < len(values):
            self._cursor[key] = index + 1
            return values[index]
        return self._means[key]


#: Summary keys compared by :func:`reconcile_timing` — the measured-vs-
#: simulated quantities of the fig19/fig25 reconciliation report.
RECONCILE_METRICS = (
    "hidden_data_time_s",
    "exposed_data_time_s",
    "data_stall_time_s",
    "virtual_wall_time_s",
)
#: Metrics whose measured and simulated values both lie within this many
#: seconds of zero count as reconciled regardless of their relative error.
_RECONCILE_ATOL_S = 1e-3


def reconcile_timing(
    measured: dict,
    simulated: dict,
    metrics: tuple[str, ...] = RECONCILE_METRICS,
    tolerance: float = 0.25,
) -> dict:
    """Compare a measured (wallclock) run summary against a simulated one.

    For each metric the report carries both values, the absolute error and a
    symmetric relative error (``|m - s| / max(|m|, |s|)``); metrics where
    both sides are within 1 ms of zero count as reconciled regardless.
    ``within_tolerance`` is True when every metric's relative error is at or
    below ``tolerance`` — the fig25 acceptance gate.
    """
    report: dict = {"tolerance": float(tolerance), "metrics": {}}
    within = True
    for name in metrics:
        m = float(measured.get(name, 0.0))
        s = float(simulated.get(name, 0.0))
        scale = max(abs(m), abs(s))
        if scale <= _RECONCILE_ATOL_S:
            rel = 0.0
        else:
            rel = abs(m - s) / scale
        ok = rel <= tolerance
        within = within and ok
        report["metrics"][name] = {
            "measured_s": m,
            "simulated_s": s,
            "abs_error_s": abs(m - s),
            "rel_error": rel,
            "reconciled": ok,
        }
    report["within_tolerance"] = within
    return report


class EncoderCostModel:
    """Per-row latency of encoding each row's image: the encoder
    forward+backward FLOPs at the default GPU's achievable throughput."""

    def __init__(self, encoder: EncoderConfig) -> None:
        self.encoder = encoder
        self.gpu = GpuSpec()

    def __call__(self, rows: SampleColumns) -> np.ndarray:
        flops = encoder_sample_flops(rows.image_tokens, self.encoder)
        return self.gpu.seconds_for(flops * (1.0 + BACKWARD_MULTIPLIER))


class BackboneCostModel:
    """Per-row latency of each row's fused sequence in the LLM backbone.

    Accounts for the quadratic attention term, the MoE active-expert MLP
    ratio, the vocabulary projection and the hidden size, as forward+backward
    time on the default GPU.
    """

    def __init__(self, backbone: BackboneConfig) -> None:
        self.backbone = backbone
        self.gpu = GpuSpec()

    def __call__(self, rows: SampleColumns) -> np.ndarray:
        tokens = rows.total_tokens
        flops = sequence_backbone_flops(tokens, self.backbone)
        # Vocabulary projection (dense models only; MoE heads are identical).
        flops += 2.0 * tokens * self.backbone.hidden_size * self.backbone.vocab_size
        return self.gpu.seconds_for(flops * (1.0 + BACKWARD_MULTIPLIER))
