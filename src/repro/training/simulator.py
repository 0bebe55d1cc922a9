"""Analytical training-iteration simulator for hybrid-parallel VLM training.

The simulator converts per-rank, per-microbatch sample assignments into an
iteration timeline: encoder forward (encoder-data-parallel over all GPUs),
all-to-all feature exchange, backbone forward+backward under PP/DP/CP/TP, the
pipeline fill/drain bubble and the gradient synchronisation barrier.  Because
attention cost is quadratic in sequence length, imbalanced assignments
directly lengthen the critical path — which is the effect the paper's
load-time balancing removes.

The simulator is intentionally analytical (FLOPs / achievable-throughput)
rather than cycle-accurate: the paper's own cost model (Sec. 4.2, validated in
Fig. 19) takes the same form.  It reads a plan's token columns
(:class:`~repro.training.flops.TokenBins`): FLOPs per sample are array
passes over the columns, their sums per bin are Python floats, and the stage
times follow from those tens of bins, with no Python loop per sample.  The
per-microbatch :attr:`IterationResult.timeline` is built from the stage times
only when it is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import ClassVar

import numpy as np

from repro.actors.actor import Actor
from repro.errors import ConfigurationError
from repro.metrics.timeline import Timeline
from repro.parallelism.mesh import DeviceMesh
from repro.training.flops import (
    TokenBins,
    encoder_sample_flops,
    packed_backbone_flops,
    segment_attention_flops,
)
from repro.training.models import BackboneConfig, EncoderConfig, VLMConfig


@dataclass(frozen=True)
class GpuSpec:
    """Throughput/memory model of one accelerator (defaults approximate an L20)."""

    name: str = "L20"
    peak_flops: float = 119.0e12
    #: Achieved fraction of ``peak_flops`` (model FLOPs utilisation).
    mfu: ClassVar[float] = 0.42
    #: Bytes of one activation element (bf16).
    bytes_per_activation: ClassVar[int] = 2

    def seconds_for(self, flops):
        """Wall-clock seconds to execute ``flops`` (a float or an array) at
        the achievable rate."""
        return flops / (self.peak_flops * self.mfu)


#: All-to-all communication model: bandwidth and per-exchange base latency.
ALLTOALL_BANDWIDTH_BPS = 50.0e9
ALLTOALL_BASE_LATENCY_S = 0.003
#: Base latency of the gradient all-reduce barrier.
ALLREDUCE_BASE_LATENCY_S = 0.010


@dataclass
class IterationResult:
    """Outcome of one simulated training iteration."""

    iteration_time_s: float
    per_dp_time_s: list[float]
    encoder_time_s: float
    backbone_time_s: float
    alltoall_time_s: float
    bubble_time_s: float
    data_fetch_latency_s: float
    exposed_fetch_time_s: float
    total_tokens: int
    peak_activation_tokens: int
    #: Stage seconds per microbatch: encoder and all-to-all (global barriers,
    #: one per microbatch) and backbone (one list per DP rank).
    stage_times_s: tuple[list[float], list[float], list[list[float]]] = field(
        repr=False, compare=False
    )
    hidden_fetch_time_s: float = 0.0

    @property
    def throughput_tokens_per_s(self) -> float:
        if self.iteration_time_s <= 0:
            return 0.0
        return self.total_tokens / self.iteration_time_s

    @cached_property
    def timeline(self) -> Timeline:
        """Per DP rank ``dp{i}``, one ``mb{j}`` event per microbatch carrying
        its encoder, all-to-all and backbone stage seconds; built on first read."""
        encoder, alltoall, backbone = self.stage_times_s
        timeline = Timeline()
        for dp_index, row in enumerate(backbone):
            mb_times = _microbatch_times(encoder, alltoall, row)
            stages = zip(accumulate(mb_times, initial=0), mb_times, encoder, alltoall, row)
            for mb_index, (start, duration, encoder_stage, comm_stage, backbone_stage) in enumerate(
                stages
            ):
                timeline.record(
                    component=f"dp{dp_index}",
                    name=f"mb{mb_index}",
                    start=start,
                    duration=duration,
                    encoder=encoder_stage,
                    alltoall=comm_stage,
                    backbone=backbone_stage,
                )
        return timeline


def _microbatch_times(
    encoder: list[float], alltoall: list[float], backbone: list[float]
) -> list[float]:
    """One DP rank's per-microbatch step times: the encoder + all-to-all
    stage is a global barrier (features are exchanged across the whole
    cluster), the backbone stage is per-DP."""
    return [e + a + b for e, a, b in zip(encoder, alltoall, backbone)]


#: Backward pass costs roughly 2x the forward pass.
BACKWARD_MULTIPLIER = 2.0


class TrainingSimulator:
    """Simulates iteration time for a (possibly multimodal) training job."""

    def __init__(
        self,
        model: VLMConfig | BackboneConfig,
        mesh: DeviceMesh,
        gpu: GpuSpec | None = None,
    ) -> None:
        if isinstance(model, VLMConfig):
            self.encoder: EncoderConfig | None = model.encoder
            self.backbone: BackboneConfig = model.backbone
        else:
            self.encoder = None
            self.backbone = model
        self.mesh = mesh
        self.gpu = gpu or GpuSpec()

    # -- public API --------------------------------------------------------------

    def simulate_iteration(
        self,
        backbone_assignments: TokenBins,
        encoder_assignments: TokenBins | None = None,
        data_fetch_latency_s: float = 0.0,
        hidden_fetch_s: float | None = None,
    ) -> IterationResult:
        """Simulate one iteration.

        Parameters
        ----------
        backbone_assignments:
            The backbone's token columns: bucket ``dp``'s microbatch ``mb`` is
            the samples DP group ``dp`` processes in microbatch ``mb``
            (:meth:`~repro.core.plans.ModulePlan.token_bins`).
        encoder_assignments:
            The encoder's token columns: bucket ``gpu``'s microbatch ``mb`` is
            the image samples whose patches GPU ``gpu`` encodes for microbatch
            ``mb``; defaults to each DP group's images spread over that
            group's GPUs.
        data_fetch_latency_s:
            Latency of fetching the iteration's data.
        hidden_fetch_s:
            Fetch latency actually overlapped with earlier compute, as
            measured by the prefetching step pipeline.  ``None`` keeps the
            legacy optimistic model where the fetch fully overlaps the
            previous iteration's compute; ``0.0`` models a synchronous data
            plane whose fetch sits entirely on the critical path.
        """
        bins = backbone_assignments
        dims = self.mesh.dims
        dp_size = dims.dp
        if bins.num_buckets != dp_size:
            raise ConfigurationError(
                f"expected assignments for {dp_size} DP groups, got {bins.num_buckets}"
            )
        width = bins.num_microbatches
        fwd_bwd = 1.0 + BACKWARD_MULTIPLIER
        # Per sample as arrays, then per bin as Python numbers: the segments'
        # attention terms and the fused tokens, each bin added in sum() order.
        attention = bins.bin_sums(segment_attention_flops(bins.total_tokens, self.backbone))
        tokens = bins.bin_sums(bins.total_tokens)
        # The backbone is sharded across PP stages (layers), CP ranks
        # (sequence) and TP ranks (operators): a microbatch's stage time
        # divides the full-model time by pp * cp * tp.
        shard = dims.pp * dims.cp * dims.tp
        stage_times = [
            self.gpu.seconds_for(packed_backbone_flops(t, a, self.backbone) * fwd_bwd / shard)
            for t, a in zip(tokens, attention)
        ]
        backbone_times = [stage_times[dp * width : (dp + 1) * width] for dp in range(dp_size)]
        if self.encoder is None:
            encoder_times = alltoall_times = [0.0] * width
        else:
            if encoder_assignments is None:
                encoder_assignments = self._default_encoder_assignments(bins)
            encoder_times = self._encoder_microbatch_times(encoder_assignments, width)
            # The all-to-all moves every encoded image feature into the backbone.
            images = bins.bin_sums(bins.image_tokens)
            feature_bytes = self.encoder.hidden_size * self.gpu.bytes_per_activation
            payloads = [sum(images[mb::width]) * feature_bytes for mb in range(width)]
            alltoall_times = [
                ALLTOALL_BASE_LATENCY_S + payload / ALLTOALL_BANDWIDTH_BPS for payload in payloads
            ]

        # A pipeline of PP stages adds a fill/drain bubble of (PP - 1) of the
        # rank's longest microbatches, spread over its microbatches.
        per_dp_times = []
        for row in backbone_times:
            mb_times = _microbatch_times(encoder_times, alltoall_times, row)
            bubble = (dims.pp - 1) * max(mb_times, default=0.0) / max(1, width)
            per_dp_times.append(sum(mb_times) + bubble)

        # Gradient synchronisation: every DP rank waits for the slowest one.
        allreduce = ALLREDUCE_BASE_LATENCY_S
        compute_time = max(per_dp_times)
        if hidden_fetch_s is None:
            # Legacy model: assume the fetch fully overlaps the previous
            # iteration's compute window.
            hidden = min(data_fetch_latency_s, compute_time)
        else:
            hidden = max(0.0, min(hidden_fetch_s, data_fetch_latency_s))
        exposed_fetch = max(0.0, data_fetch_latency_s - hidden)
        iteration_time = compute_time + allreduce + exposed_fetch

        return IterationResult(
            iteration_time_s=iteration_time,
            per_dp_time_s=per_dp_times,
            encoder_time_s=sum(encoder_times),
            backbone_time_s=max(map(sum, backbone_times)),
            alltoall_time_s=sum(alltoall_times),
            bubble_time_s=compute_time - min(per_dp_times) if dp_size > 1 else 0.0,
            data_fetch_latency_s=data_fetch_latency_s,
            exposed_fetch_time_s=exposed_fetch,
            total_tokens=sum(tokens),
            # The largest microbatch drives activation memory / OOM risk.
            peak_activation_tokens=max(tokens, default=0),
            stage_times_s=(encoder_times, alltoall_times, backbone_times),
            hidden_fetch_time_s=hidden,
        )

    # -- encoder stage ------------------------------------------------------------

    def _encoder_microbatch_times(self, encoder_assignments: TokenBins, width: int) -> list[float]:
        """Per-microbatch encoder stage time (max over encoder-DP ranks); a
        microbatch a rank has no bin for encodes nothing there."""
        bins = encoder_assignments
        flops = bins.bin_sums(encoder_sample_flops(bins.image_tokens, self.encoder))
        seconds = [self.gpu.seconds_for(f * (1.0 + BACKWARD_MULTIPLIER)) for f in flops]
        own = bins.num_microbatches
        return [max(seconds[mb::own], default=0.0) if mb < own else 0.0 for mb in range(width)]

    def _default_encoder_assignments(self, backbone_assignments: TokenBins) -> TokenBins:
        """Spread each DP group's images across that group's GPUs (EDP): a
        bin's ``k``-th image goes to the group's GPU ``k % gpus_per_dp``."""
        bins = backbone_assignments
        dp_size, width = bins.num_buckets, bins.num_microbatches
        gpus_per_dp = max(1, self.mesh.world_size // dp_size)
        pictured = np.flatnonzero(bins.image_tokens > 0)
        bin_of = np.arange(dp_size * width).repeat(np.diff(bins.offsets))[pictured]
        position = np.arange(len(pictured)) - np.searchsorted(bin_of, bin_of)
        dp_index, mb_index = np.divmod(bin_of, width)
        gpu_bin = (dp_index * gpus_per_dp + position % gpus_per_dp) * width + mb_index
        order = np.argsort(gpu_bin, kind="stable")
        rows = pictured[order]
        num_gpus = dp_size * gpus_per_dp
        return TokenBins(
            bins.total_tokens[rows],
            bins.image_tokens[rows],
            np.searchsorted(gpu_bin[order], np.arange(num_gpus * width + 1)).tolist(),
            num_gpus,
            width,
        )


class TrainerActor(Actor):
    """The trainer as a first-class actor on the shared virtual clock.

    Every consumed step books a compute-window event on the actor runtime's
    event engine (the window's virtual duration is derived from the returned
    :class:`IterationResult` by the latency provider), so trainer compute and
    data-plane work are co-simulated on one clock and the
    :class:`~repro.metrics.timeline.OverlapLedger` can *measure* — rather
    than estimate — how much data-preparation time was hidden behind compute.
    """

    role = "trainer"

    def __init__(self, simulator: TrainingSimulator) -> None:
        super().__init__()
        self.simulator = simulator
        self.steps_consumed = 0
        #: Per-step ``(step, measured stall seconds, loader fleet size)``
        #: triples appended by the framework after each consume.  The series
        #: lets elasticity benchmarks correlate trainer stalls with fleet
        #: size over the run (burst → stall spike → scale-up → recovery).
        self.stall_log: list[tuple[int, float, int]] = []

    def record_stall(self, step: int, stall_s: float, fleet_size: int) -> None:
        """Log the measured data stall of one consumed step."""
        self.stall_log.append((int(step), float(stall_s), int(fleet_size)))

    def train_step(
        self,
        step: int,
        backbone_assignments: TokenBins,
        encoder_assignments: TokenBins | None = None,
        data_fetch_latency_s: float = 0.0,
        hidden_fetch_s: float = 0.0,
    ) -> IterationResult:
        """Simulate one training iteration over the step's assignments."""
        self.steps_consumed += 1
        return self.simulator.simulate_iteration(
            backbone_assignments,
            encoder_assignments=encoder_assignments,
            data_fetch_latency_s=data_fetch_latency_s,
            hidden_fetch_s=hidden_fetch_s,
        )

    def consume_step(self, step: int) -> int:
        """Zero-duration consume marker for non-simulated runs.

        Booking the consume keeps the trainer's busy window (and therefore
        measured stalls) well-defined even when no iteration is simulated.
        """
        self.steps_consumed += 1
        return step

    def heartbeat_payload(self) -> dict:
        return {"steps_consumed": self.steps_consumed}

    def state_dict(self) -> dict:
        """Restartable trainer state for coordinator recovery.

        The simulator itself is stateless between iterations (each call is a
        pure function of its assignments), so consumption progress and the
        stall log are the whole recoverable state.
        """
        return {
            "steps_consumed": self.steps_consumed,
            "stall_log": list(self.stall_log),
        }

    def load_state_dict(self, state: dict) -> None:
        self.steps_consumed = int(state.get("steps_consumed", 0))
        self.stall_log = [tuple(entry) for entry in state.get("stall_log", [])]
