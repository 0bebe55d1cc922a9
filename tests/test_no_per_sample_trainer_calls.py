"""Guard: the trainer model's Python calls per step do not grow with the batch.

The training simulator reads a plan's token columns and prices a step as array
passes, so no function of ``repro/training/`` runs once per sample or per bin.
These tests count the Python-level ``call`` events (``sys.setprofile``) whose
code lives under ``repro/training/`` over steady-state steps, and require the
same count per step at 32 and at 64 samples per DP rank.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import pytest

import repro.training
from repro import MegaScaleData, TrainingJobSpec

JOBS = {
    "vlm": TrainingJobSpec.vlm_example,
    "text": TrainingJobSpec.text_example,
}

TRAINING_DIR = str(Path(repro.training.__file__).parent) + "/"


def training_calls_per_step(job: TrainingJobSpec, steps: int = 3) -> float:
    """Python-level calls into ``repro/training/`` per simulated step, after
    three warm-up steps."""
    system = MegaScaleData.deploy(job)
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(TRAINING_DIR):
            calls += 1

    try:
        for _ in range(3):
            system.run_step(simulate=True)
        sys.setprofile(profile)
        try:
            for _ in range(steps):
                system.run_step(simulate=True)
        finally:
            sys.setprofile(None)
    finally:
        system.shutdown()
    return calls / steps


@pytest.mark.parametrize("depth", [0, 2])
@pytest.mark.parametrize("job_name", sorted(JOBS))
def test_trainer_calls_per_step_do_not_grow_with_the_batch(job_name, depth):
    per_step = {
        samples: training_calls_per_step(
            replace(JOBS[job_name](), prefetch_depth=depth, seed=0, samples_per_dp_step=samples)
        )
        for samples in (32, 64)
    }
    assert per_step[32] > 0, per_step
    assert per_step[32] == per_step[64], per_step
