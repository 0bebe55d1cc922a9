"""The declarative job description and the per-step result record.

:class:`TrainingJobSpec` is everything a user states about a training job and
its data plane; :class:`StepResult` is everything one pull-workflow step
hands back.  Both are plain data shared by every ``core`` module.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.actors.runtime import ActorSystem
from repro.core.data_constructor import RankDelivery
from repro.core.planner import PlanTimings
from repro.core.plans import LoadingPlan
from repro.core.strategies import BUILTIN_STRATEGIES, StrategyConfig, StrategyFn, make_strategy
from repro.data.mixture import MixtureSchedule
from repro.data.synthetic import DATASET_GROUPS
from repro.errors import ConfigurationError
from repro.parallelism.mesh import DeviceMesh
from repro.training.models import MODEL_ZOO, BackboneConfig, EncoderConfig, VLMConfig
from repro.training.simulator import GpuSpec, IterationResult

#: Degraded-mode policies when a source's loaders are all dead or blacked out:
#: "strict" waits faults out (byte-identical batches, fail-stop past the wait
#: budget); "renormalize" re-plans over surviving sources and repays the lost
#: quota deterministically once the source returns.
DEGRADED_MODES = ("strict", "renormalize")

#: GPUs per accelerator node of the job's device mesh.
GPUS_PER_NODE = 16


@dataclass
class TrainingJobSpec:
    """User-facing description of a training job and its data plane."""

    # Parallelism.
    pp: int = 1
    dp: int = 2
    cp: int = 1
    tp: int = 1

    # Model.
    backbone: str = "Llama-12B"
    encoder: str | None = "ViT-2B"

    # Batching.
    samples_per_dp_step: int = 32
    num_microbatches: int = 4
    max_sequence_length: int = 8192

    # Data.
    dataset_group: str = "navit_data"
    num_sources: int = 8
    samples_per_source: int = 256
    mixture: MixtureSchedule | None = None

    # Orchestration.
    strategy: str = "hybrid"

    # Deployment.
    cpu_pods: int = 1
    enable_shadow_loaders: bool = False
    enable_autoscaler: bool = True
    seed: int = 0

    #: How many future steps the StepPipeline keeps in flight behind the
    #: trainer.  0 = every data-plane call is issued inline, one step at a
    #: time (fetch latency fully exposed); >=1 = deferred calls, prefetching.
    prefetch_depth: int = 0

    #: Accelerator model for the trainer simulator (None = the default
    #: :class:`~repro.training.simulator.GpuSpec`).  Benchmarks use this to
    #: dial the compute/fetch ratio (e.g. fetch-bound jobs).
    gpu_spec: GpuSpec | None = None

    #: Bounded-replay window: the differential checkpoint interval for loader
    #: state and the number of plans the Planner keeps in memory.  Recovery
    #: restores the latest consistent checkpoint and replays at most this
    #: many plan suffix steps, so restore cost is flat in run length.
    replay_window: int = 50

    #: Control-plane checkpoint persistence: "memory" (dict-backed, the
    #: simulation default) or "sqlite" (a real stdlib-sqlite3 database,
    #: :class:`~repro.core.checkpoint.SqliteCheckpointStore`; payloads
    #: round-trip through pickle).
    checkpoint_backend: str = "memory"

    #: Actor execution backend: "virtual" (discrete-event virtual-clock
    #: co-simulation, the deterministic default) or "wallclock" (real
    #: thread-parallel actor lanes behind the same API — see
    #: :mod:`repro.actors.wallclock`; batches stay byte-identical, timing is
    #: measured from real completions).
    backend: str = "virtual"

    #: Real seconds per virtual second under ``backend="wallclock"``: modelled
    #: latencies are slept for ``duration * wallclock_time_scale`` so a
    #: simulated hour compresses into benchmark-friendly wall time.  Ignored
    #: by the virtual backend.
    wallclock_time_scale: float = 1.0

    #: What the data plane does when every loader of a source is dead or
    #: blacked out and recovery keeps failing: "strict" (default) waits the
    #: fault out with jittered backoff — batches stay byte-identical to a
    #: failure-free run, the outage shows up purely as stall — and fail-stops
    #: once the wait budget is exhausted; "renormalize" re-plans over the
    #: surviving sources (mixture weights renormalized, decision logged to
    #: the OverlapLedger) and deterministically repays the lost source's
    #: sample quota once it returns.
    degraded_mode: str = "strict"

    #: Tenant namespace for multi-job deployments sharing one ActorSystem:
    #: every actor name, GCS key and checkpoint-store namespace this job
    #: creates is prefixed with ``"<namespace>/"`` so concurrent jobs never
    #: collide on shared control-plane state.  "" (the default) keeps the
    #: unscoped single-tenant names.
    namespace: str = ""

    def __post_init__(self) -> None:
        if self.samples_per_dp_step < 1 or self.num_microbatches < 1:
            raise ConfigurationError("samples_per_dp_step and num_microbatches must be >= 1")
        if self.max_sequence_length < 1:
            raise ConfigurationError("max_sequence_length must be >= 1")
        if self.samples_per_dp_step < self.num_microbatches:
            raise ConfigurationError(
                "samples_per_dp_step must be >= num_microbatches so every microbatch is non-empty"
            )
        if self.prefetch_depth < 0:
            raise ConfigurationError("prefetch_depth must be >= 0")
        if self.replay_window < 1:
            raise ConfigurationError("replay_window must be >= 1")
        if self.checkpoint_backend not in ("memory", "sqlite"):
            raise ConfigurationError(
                f"unknown checkpoint_backend {self.checkpoint_backend!r}; "
                "expected 'memory' or 'sqlite'"
            )
        if self.backend not in ActorSystem.BACKENDS:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; "
                f"expected one of {ActorSystem.BACKENDS}"
            )
        if self.wallclock_time_scale <= 0:
            raise ConfigurationError("wallclock_time_scale must be > 0")
        if self.degraded_mode not in DEGRADED_MODES:
            raise ConfigurationError(
                f"unknown degraded_mode {self.degraded_mode!r}; "
                f"expected one of {DEGRADED_MODES}"
            )
        if self.strategy not in BUILTIN_STRATEGIES:
            raise ConfigurationError(
                f"unknown strategy {self.strategy!r}; "
                f"expected one of {tuple(BUILTIN_STRATEGIES)}"
            )
        if self.dataset_group not in DATASET_GROUPS:
            raise ConfigurationError(
                f"unknown dataset_group {self.dataset_group!r}; "
                f"expected one of {tuple(DATASET_GROUPS)}"
            )
        if self.backbone not in MODEL_ZOO:
            raise ConfigurationError(f"unknown backbone {self.backbone!r}")
        if self.encoder is not None and self.encoder not in MODEL_ZOO:
            raise ConfigurationError(f"unknown encoder {self.encoder!r}")
        if self.namespace and (
            self.namespace != self.namespace.strip("/") or " " in self.namespace
        ):
            raise ConfigurationError(
                f"namespace {self.namespace!r} must not contain spaces or "
                "leading/trailing slashes"
            )

    # -- namespacing -------------------------------------------------------------------

    @property
    def tenant(self) -> str | None:
        """Scheduler tenant tag: the namespace, or ``None`` when unscoped."""
        return self.namespace or None

    def scoped(self, name: str) -> str:
        """Prefix ``name`` with this job's namespace (identity when unscoped)."""
        return f"{self.namespace}/{name}" if self.namespace else name

    def unscoped(self, name: str) -> str:
        """Strip this job's namespace prefix from ``name`` if present."""
        prefix = f"{self.namespace}/"
        if self.namespace and name.startswith(prefix):
            return name[len(prefix):]
        return name

    def owns(self, name: str) -> bool:
        """Whether ``name`` belongs to this job's namespace."""
        return not self.namespace or name.startswith(f"{self.namespace}/")

    # -- derived -----------------------------------------------------------------------

    def device_mesh(self) -> DeviceMesh:
        return DeviceMesh(
            pp=self.pp, dp=self.dp, cp=self.cp, tp=self.tp, gpus_per_node=GPUS_PER_NODE
        )

    def model(self) -> VLMConfig | BackboneConfig:
        backbone = MODEL_ZOO[self.backbone]()
        if self.encoder is None:
            return backbone
        encoder = MODEL_ZOO[self.encoder]()
        assert isinstance(encoder, EncoderConfig)
        assert isinstance(backbone, BackboneConfig)
        return VLMConfig(encoder=encoder, backbone=backbone)

    def global_samples_per_step(self) -> int:
        return self.samples_per_dp_step * self.dp

    def build_strategy(self, mixture: MixtureSchedule | None) -> StrategyFn:
        """The declared orchestration strategy, sampling under ``mixture``."""
        return make_strategy(
            self.strategy,
            StrategyConfig(mixture=mixture, num_microbatches=self.num_microbatches),
        )

    @classmethod
    def vlm_example(cls) -> "TrainingJobSpec":
        """A small VLM job usable in examples and quickstart docs."""
        return cls(pp=1, dp=2, cp=1, tp=2, num_sources=6, samples_per_source=128,
                   samples_per_dp_step=16, num_microbatches=4)

    @classmethod
    def text_example(cls) -> "TrainingJobSpec":
        """A pure-text job (no encoder)."""
        return cls(encoder=None, dataset_group="coyo700m", strategy="backbone_balance",
                   num_sources=4, samples_per_source=128, samples_per_dp_step=16)


@dataclass
class StepResult:
    """Everything produced by one pull-workflow step."""

    step: int
    plan: LoadingPlan
    plan_timings: PlanTimings
    loader_wall_clock_s: float
    loader_transform_s: float
    constructor_collate_s: float
    data_fetch_latency_s: float
    deliveries: dict[int, RankDelivery]
    iteration: IterationResult | None = None
    #: Portion of the fetch latency hidden behind compute, *measured* on the
    #: virtual clock (always 0 at ``prefetch_depth=0``).
    hidden_fetch_s: float = 0.0
    #: Whether the step was served from the prefetch pipeline.
    prefetched: bool = False
    #: Measured trainer wait for this step's data (virtual seconds the
    #: trainer sat idle between its previous iteration and data readiness).
    data_stall_s: float = 0.0

    @property
    def exposed_fetch_s(self) -> float:
        """Fetch latency left on the iteration critical path."""
        return max(0.0, self.data_fetch_latency_s - self.hidden_fetch_s)
