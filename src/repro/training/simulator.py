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
Fig. 19) takes the same form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.actors.actor import Actor
from repro.errors import ConfigurationError
from repro.metrics.timeline import Timeline
from repro.parallelism.mesh import DeviceMesh
from repro.training.flops import MicrobatchTokens, microbatch_flops
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

    def seconds_for(self, flops: float) -> float:
        """Wall-clock seconds to execute ``flops`` at the achievable rate."""
        if flops <= 0:
            return 0.0
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
    hidden_fetch_time_s: float = 0.0
    timeline: Timeline = field(default_factory=Timeline)

    @property
    def throughput_tokens_per_s(self) -> float:
        if self.iteration_time_s <= 0:
            return 0.0
        return self.total_tokens / self.iteration_time_s


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
        backbone_assignments: list[list[MicrobatchTokens]],
        encoder_assignments: list[list[MicrobatchTokens]] | None = None,
        data_fetch_latency_s: float = 0.0,
        hidden_fetch_s: float | None = None,
    ) -> IterationResult:
        """Simulate one iteration.

        Parameters
        ----------
        backbone_assignments:
            ``backbone_assignments[dp][mb]`` is the token arrays of the
            samples DP group ``dp`` processes in microbatch ``mb``
            (:meth:`~repro.core.plans.ModulePlan.bucket_tokens`).
        encoder_assignments:
            ``encoder_assignments[gpu][mb]`` is the token arrays of the image
            samples whose patches GPU ``gpu`` encodes for microbatch ``mb``;
            defaults to the backbone assignment replicated over each DP
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
        dp_size = self.mesh.size("DP")
        if len(backbone_assignments) != dp_size:
            raise ConfigurationError(
                f"expected assignments for {dp_size} DP groups, got {len(backbone_assignments)}"
            )
        # Read every token array into Python ints once: the per-sample
        # arithmetic and its summation order are the scalar model's.
        backbone_assignments = _as_ints(backbone_assignments)
        if encoder_assignments is not None:
            encoder_assignments = _as_ints(encoder_assignments)
        num_microbatches = max((len(row) for row in backbone_assignments), default=0)
        timeline = Timeline()

        encoder_mb_times = self._encoder_microbatch_times(
            backbone_assignments, encoder_assignments, num_microbatches
        )
        alltoall_mb_times = self._alltoall_times(backbone_assignments, num_microbatches)
        backbone_mb_times = self._backbone_microbatch_times(backbone_assignments, num_microbatches)

        # Per-microbatch "step" time as experienced by every DP rank: the
        # encoder + all-to-all stage is a global barrier (features are
        # exchanged across the whole cluster), the backbone stage is per-DP.
        per_dp_times: list[float] = []
        pp_size = self.mesh.size("PP")
        for dp_index in range(dp_size):
            mb_times = []
            for mb_index in range(num_microbatches):
                encoder_stage = encoder_mb_times[mb_index]
                comm_stage = alltoall_mb_times[mb_index]
                backbone_stage = backbone_mb_times[dp_index][mb_index]
                mb_times.append(encoder_stage + comm_stage + backbone_stage)
                timeline.record(
                    component=f"dp{dp_index}",
                    name=f"mb{mb_index}",
                    start=sum(mb_times[:-1]),
                    duration=mb_times[-1],
                    encoder=encoder_stage,
                    alltoall=comm_stage,
                    backbone=backbone_stage,
                )
            steady = sum(mb_times)
            bubble = (pp_size - 1) * (max(mb_times) if mb_times else 0.0) / max(1, num_microbatches)
            bubble *= len(mb_times) and 1.0
            per_dp_times.append(steady + bubble)

        # Gradient synchronisation: every DP rank waits for the slowest one.
        allreduce = ALLREDUCE_BASE_LATENCY_S
        compute_time = max(per_dp_times) if per_dp_times else 0.0
        if hidden_fetch_s is None:
            # Legacy model: assume the fetch fully overlaps the previous
            # iteration's compute window.
            hidden = min(data_fetch_latency_s, compute_time)
        else:
            hidden = max(0.0, min(hidden_fetch_s, data_fetch_latency_s))
        exposed_fetch = max(0.0, data_fetch_latency_s - hidden)
        iteration_time = compute_time + allreduce + exposed_fetch

        bubble_time = (
            max(per_dp_times) - min(per_dp_times) if len(per_dp_times) > 1 else 0.0
        )
        total_tokens = sum(
            tokens
            for row in backbone_assignments
            for totals, _ in row
            for tokens in totals
        )
        peak_activation = self._peak_activation_tokens(backbone_assignments)
        return IterationResult(
            iteration_time_s=iteration_time,
            per_dp_time_s=per_dp_times,
            encoder_time_s=sum(encoder_mb_times),
            backbone_time_s=max(
                (sum(row) for row in backbone_mb_times), default=0.0
            ),
            alltoall_time_s=sum(alltoall_mb_times),
            bubble_time_s=bubble_time,
            data_fetch_latency_s=data_fetch_latency_s,
            exposed_fetch_time_s=exposed_fetch,
            total_tokens=total_tokens,
            peak_activation_tokens=peak_activation,
            hidden_fetch_time_s=hidden,
            timeline=timeline,
        )

    # -- stage models --------------------------------------------------------------

    def _encoder_microbatch_times(
        self,
        backbone_assignments: list[list[MicrobatchTokens]],
        encoder_assignments: list[list[MicrobatchTokens]] | None,
        num_microbatches: int,
    ) -> list[float]:
        """Per-microbatch encoder stage time (max over encoder-DP ranks)."""
        if self.encoder is None:
            return [0.0] * num_microbatches
        if encoder_assignments is None:
            encoder_assignments = self._default_encoder_assignments(backbone_assignments)
        times = []
        fwd_bwd = 1.0 + BACKWARD_MULTIPLIER
        for mb_index in range(num_microbatches):
            rank_times = []
            for rank_row in encoder_assignments:
                tokens = rank_row[mb_index] if mb_index < len(rank_row) else ([], [])
                flops = microbatch_flops(tokens, self.encoder, None)["encoder_flops"]
                rank_times.append(self.gpu.seconds_for(flops * fwd_bwd))
            times.append(max(rank_times) if rank_times else 0.0)
        return times

    def _default_encoder_assignments(
        self, backbone_assignments: list[list[MicrobatchTokens]]
    ) -> list[list[MicrobatchTokens]]:
        """Spread each DP group's images across that group's GPUs (EDP)."""
        assignments: list[list[MicrobatchTokens]] = []
        dp_size = self.mesh.size("DP")
        gpus_per_dp = max(1, self.mesh.world_size // dp_size)
        for dp_row in backbone_assignments:
            per_gpu: list[list[MicrobatchTokens]] = [
                [([], []) for _ in range(len(dp_row))] for _ in range(gpus_per_dp)
            ]
            for mb_index, (totals, images) in enumerate(dp_row):
                pictured = [pair for pair in zip(totals, images) if pair[1] > 0]
                for position, (total, image) in enumerate(pictured):
                    gpu = per_gpu[position % gpus_per_dp][mb_index]
                    gpu[0].append(total)
                    gpu[1].append(image)
            assignments.extend(per_gpu)
        return assignments

    def _alltoall_times(
        self, backbone_assignments: list[list[MicrobatchTokens]], num_microbatches: int
    ) -> list[float]:
        """All-to-all time moving encoded image features into the backbone."""
        if self.encoder is None:
            return [0.0] * num_microbatches
        times = []
        feature_bytes_per_token = self.encoder.hidden_size * self.gpu.bytes_per_activation
        for mb_index in range(num_microbatches):
            image_tokens = 0
            for dp_row in backbone_assignments:
                if mb_index < len(dp_row):
                    image_tokens += sum(dp_row[mb_index][1])
            payload = image_tokens * feature_bytes_per_token
            times.append(ALLTOALL_BASE_LATENCY_S + payload / ALLTOALL_BANDWIDTH_BPS)
        return times

    def _backbone_microbatch_times(
        self, backbone_assignments: list[list[MicrobatchTokens]], num_microbatches: int
    ) -> list[list[float]]:
        """Per-DP, per-microbatch backbone compute time.

        The backbone is sharded across PP stages (layers), CP ranks (sequence)
        and TP ranks (operators); a microbatch's stage time therefore divides
        the full-model time by ``pp * cp * tp``.
        """
        pp = self.mesh.size("PP")
        cp = self.mesh.size("CP")
        tp = self.mesh.size("TP")
        shard = pp * cp * tp
        fwd_bwd = 1.0 + BACKWARD_MULTIPLIER
        times: list[list[float]] = []
        for dp_row in backbone_assignments:
            row_times = []
            for mb_index in range(num_microbatches):
                tokens = dp_row[mb_index] if mb_index < len(dp_row) else ([], [])
                flops = microbatch_flops(tokens, None, self.backbone)["backbone_flops"]
                row_times.append(self.gpu.seconds_for(flops * fwd_bwd / shard))
            times.append(row_times)
        return times

    def _peak_activation_tokens(self, backbone_assignments: list[list[MicrobatchTokens]]) -> int:
        """Largest single-microbatch token count (drives activation memory / OOM risk)."""
        peak = 0
        for dp_row in backbone_assignments:
            for totals, _ in dp_row:
                peak = max(peak, sum(totals))
        return peak


def _as_ints(assignments: list[list[MicrobatchTokens]]) -> list[list[tuple[list, list]]]:
    return [[(np.asarray(t).tolist(), np.asarray(i).tolist()) for t, i in row] for row in assignments]


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
        backbone_assignments: list[list[MicrobatchTokens]],
        encoder_assignments: list[list[MicrobatchTokens]] | None = None,
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
