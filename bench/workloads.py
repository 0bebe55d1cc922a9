"""The four named workloads: job spec, generated inputs and control-op script.

Every workload is a closed loop with one client on the virtual backend: the
driver issues ``run_step(simulate=True)`` only after the previous step
returned.  A workload's inputs are a pure function of ``--seed``, which is
``TrainingJobSpec.seed``: it decides which samples every step draws and how
they are balanced.  Everything that decides *how much* work a step is — the
catalog (source count, modality mix, sample lengths) and the batch size — is
fixed, so a workload costs the same on every seed and run-to-run spread
measures the machine, not the inputs.  Measured before fixing it: seeding
the catalog too moved ``sim_tokens_per_s`` by 9% (quartile spread over eight
seeds) against 5% for the job seed alone, and ``navit_like_spec``, which
also draws the modality mix from the seed, moved ``vlm_sync`` between 12 and
16 steps/s; hence the explicit ``SyntheticSourceSpec`` lists below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro import MegaScaleData, TrainingJobSpec
from repro.data.distributions import distribution_for
from repro.data.mixture import MixturePhase, MixtureSchedule
from repro.data.samples import Modality
from repro.data.synthetic import SyntheticDatasetSpec, SyntheticSourceSpec
from repro.training.simulator import GpuSpec

#: Pinned accelerator models (literals, not calibrated at run time, so both
#: sides of a comparison simulate the same trainer).  Each makes its job
#: fetch-bound: the data plane, not the trainer, sets the virtual step time.
VLM_GPU = GpuSpec(peak_flops=4.0e16)
TEXT_WIDE_GPU = GpuSpec(peak_flops=2.0e18)
CHURN_GPU = GpuSpec(peak_flops=3.57e17)

#: navit_data-like modality mix of the two VLM workloads (~ the 60/25/10/5
#: image/text/video/audio split of ``navit_like_spec``), in catalog order.
VLM_MODALITIES = (
    Modality.IMAGE, Modality.TEXT, Modality.IMAGE, Modality.VIDEO,
    Modality.IMAGE, Modality.TEXT, Modality.AUDIO, Modality.IMAGE,
)


def _dataset(modalities: tuple[Modality, ...], samples: int) -> SyntheticDatasetSpec:
    text = distribution_for("navit_data", "text")
    image = distribution_for("navit_data", "image")
    return SyntheticDatasetSpec(
        group_name="navit_data",
        seed=0,
        sources=tuple(
            SyntheticSourceSpec(
                name=f"navit_data/src{index:03d}",
                modality=modality,
                num_samples=samples,
                text_distribution=text,
                image_distribution=None if modality is Modality.TEXT else image,
            )
            for index, modality in enumerate(modalities)
        ),
    )


def _vlm(seed: int, prefetch_depth: int):
    job = TrainingJobSpec(
        dp=4, tp=2, encoder="ViT-2B", strategy="hybrid",
        samples_per_dp_step=64, num_sources=len(VLM_MODALITIES), samples_per_source=4096,
        prefetch_depth=prefetch_depth, gpu_spec=VLM_GPU, seed=seed,
    )
    return job, _dataset(VLM_MODALITIES, 4096)


def _text_wide(seed: int):
    job = TrainingJobSpec(
        dp=8, encoder=None, strategy="backbone_balance",
        samples_per_dp_step=64, num_sources=48, samples_per_source=1024,
        prefetch_depth=2, gpu_spec=TEXT_WIDE_GPU, seed=seed,
    )
    return job, _dataset((Modality.TEXT,) * 48, 1024)


#: Source names of the ``curriculum_churn`` catalog (as ``_dataset`` names them).
CHURN_SOURCES = tuple(f"navit_data/src{index:03d}" for index in range(8))


def _hot_mixture(hot: str) -> MixtureSchedule:
    """The mixture ``curriculum_churn`` swaps in mid-run: half the batch from one source."""
    weights = {name: 0.5 / (len(CHURN_SOURCES) - 1) for name in CHURN_SOURCES}
    weights[hot] = 0.5
    return MixtureSchedule.static(weights)


def _churn(seed: int):
    names = CHURN_SOURCES
    front = {name: (3.0 if index < 4 else 1.0) for index, name in enumerate(names)}
    back = {name: (1.0 if index < 4 else 3.0) for index, name in enumerate(names)}
    schedule = MixtureSchedule.staged([
        MixturePhase(0, {name: 1.0 for name in names}),
        MixturePhase(3, front),
        MixturePhase(6, back),
    ])
    job = TrainingJobSpec(
        dp=4, encoder=None, strategy="backbone_balance",
        samples_per_dp_step=32, num_sources=len(names), samples_per_source=2048,
        prefetch_depth=2, checkpoint_backend="sqlite", replay_window=10,
        enable_autoscaler=True, mixture=schedule, gpu_spec=CHURN_GPU, seed=seed,
    )
    return job, _dataset((Modality.TEXT,) * len(names), 2048)


#: Length of the ``curriculum_churn`` event cycle, in measured steps.
CHURN_CYCLE = 20


def churn_event(system: MegaScaleData, index: int) -> None:
    """Run the control op scheduled before measured step ``index`` (if any).

    A fixed 20-step cycle of writes beside the reads: mixture swap with a
    pipeline flush, manual scale-up, a loader failure, scale-down, whole-run
    checkpoint.  The hot source rotates through the catalog per cycle.  The
    failure victim is the canonical loader of the first source (rotating
    with the cycle) whose shard group has exactly one member: a mirror-less
    canonical recovers through restart + bounded replay, never through a
    hot-standby mirror promotion (see README, "defects steered around").
    """
    cycle, offset = divmod(index, CHURN_CYCLE)
    names = CHURN_SOURCES
    hot = names[cycle % len(names)]
    if offset == 5:
        system.set_mixture(_hot_mixture(hot), flush_pending=True)
    elif offset == 8:
        system.scale_source(hot, 3)
    elif offset == 12:
        for shift in range(len(names)):
            source = names[(cycle + 1 + shift) % len(names)]
            for handle in system.loader_handles:
                group = system.fleet.group_for(handle.name)
                if group is not None and group.source == source and len(group.members) == 1:
                    system.system.failures.fail(handle.name)
                    return
        raise RuntimeError("curriculum_churn found no mirror-less canonical loader to fail")
    elif offset == 16:
        system.scale_source(hot, 1)
    elif offset == 19:
        system.save_checkpoint()


@dataclass(frozen=True)
class Workload:
    name: str
    warmup: int
    #: Measured steps of one round (fixed: the same work on every commit).
    steps: int
    #: Measured steps of a ``--quick`` round (about a fifth).
    quick_steps: int
    build: Callable[[int], tuple[TrainingJobSpec, SyntheticDatasetSpec]]
    #: Which reference kernel tracks the machine's speed for this workload
    #: (``round.REFERENCES``): the kind of work its steps are bound by at
    #: this commit.  Measured over 14 runs of 6 rounds each, the memset
    #: kernel cut the spread of ``vlm_sync`` from 10.5% to 3.1% while the
    #: Python kernel raised it to 15.8%; on the text workloads the Python
    #: kernel cut it from 6.8-8.7% to 2.9-3.1%.
    reference: str
    #: Control op to run before measured step ``i``; None = pure data plane.
    event: Callable[[MegaScaleData, int], None] | None = None
    #: After the loop: shutdown, restore from the store, run one more step.
    restore_after: bool = False


#: Why each workload exists is recorded once, in ``BENCHMARK.json`` (and at
#: length in ``bench/README.md``).
WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="vlm_sync", warmup=5, steps=40, quick_steps=8, reference="memset",
            build=lambda seed: _vlm(seed, prefetch_depth=0),
        ),
        Workload(
            name="vlm_prefetch", warmup=5, steps=40, quick_steps=8, reference="memset",
            build=lambda seed: _vlm(seed, prefetch_depth=2),
        ),
        Workload(
            name="text_wide_prefetch", warmup=5, steps=60, quick_steps=12, reference="python",
            build=_text_wide,
        ),
        Workload(
            # One full event cycle even when quick: restore needs a checkpoint.
            name="curriculum_churn", warmup=3, steps=2 * CHURN_CYCLE, quick_steps=CHURN_CYCLE,
            reference="python", build=_churn, event=churn_event, restore_after=True,
        ),
    )
}
