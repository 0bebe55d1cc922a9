"""Guard: the step path moves typed columns, never ``SampleMetadata`` records.

From the row group to the simulator a sample is a row of arrays: the loader
buffer, the Planner's gather, the plan's microbatch assignments and the
trainer's token arrays.  A record is built only when a caller asks for one.
These tests count ``SampleMetadata.__init__`` over steady-state steps (it
must be zero), pin the records built on demand to digests of the records
plans used to carry, and check that what reaches digests, manifests, plan
records and checkpoints is Python ints.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from repro import MegaScaleData, TrainingJobSpec
from repro.data.samples import SampleMetadata
from conftest import bucket_samples

JOBS = {
    "vlm": TrainingJobSpec.vlm_example,
    "text": TrainingJobSpec.text_example,
}

#: sha256 over every field of the backbone's and the encoder's planned records
#: (``MicrobatchAssignment.samples``) of steps 3-5 (seed 0, both depths), recorded with
#: the record-carrying data path, where the plan held the very records the
#: loaders had decoded.
RECORD_DIGESTS = {
    "vlm": "1dd8c631ce4675243b9a136fe0a1e4238ab0caaf3890da99970d2365bcdf85dc",
    "text": "e9ec60cf40a601a3a088cf0bb7f1c59d7dbf814d233d20a1a6c7e5c666c052f6",
}


def record_digest(results) -> str:
    digest = hashlib.sha256()
    for result in results:
        for module in ("backbone", "encoder"):
            plan = result.plan.modules.get(module)
            for bucket in bucket_samples(plan) if plan else []:
                for microbatch in bucket:
                    for s in microbatch:
                        digest.update(repr((
                            result.step, s.sample_id, s.source, s.modality.value,
                            s.text_tokens, s.image_tokens, s.video_frames,
                            s.audio_seconds, s.raw_bytes, s.decoded_bytes, s.extra,
                        )).encode())
                    digest.update(b"|")
    return digest.hexdigest()


@pytest.fixture()
def count_records(monkeypatch):
    built: list[int] = []
    init = SampleMetadata.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SampleMetadata, "__init__", counting)
    return built


@pytest.mark.parametrize("depth", [0, 2])
@pytest.mark.parametrize("job_name", sorted(JOBS))
def test_steady_state_steps_build_no_record(job_name, depth, count_records):
    system = MegaScaleData.deploy(replace(JOBS[job_name](), prefetch_depth=depth, seed=0))
    try:
        for _ in range(3):
            system.run_step(simulate=True)
        count_records.clear()
        results = [system.run_step(simulate=True) for _ in range(3)]
        assert count_records == []
        assert all(result.iteration.total_tokens > 0 for result in results)
        # On demand, the records are the ones the record-carrying path held.
        assert record_digest(results) == RECORD_DIGESTS[job_name]
        assert count_records
    finally:
        system.shutdown()


def _is_int(value) -> bool:
    return type(value) is int


def test_ids_and_lengths_that_leave_the_step_path_are_python_ints():
    job = replace(TrainingJobSpec.vlm_example(), prefetch_depth=2, seed=1)
    system = MegaScaleData.deploy(job)
    try:
        results = [system.run_step(simulate=True) for _ in range(3)]
        system.save_checkpoint()
        for result in results:
            plan = result.plan
            assert all(
                _is_int(sample_id) for ids in plan.source_demands.values() for sample_id in ids
            )
            record = plan.record()
            assert all(_is_int(i) for ids in record.source_demands.values() for i in ids)
            manifest = system.delivery_manifest(result.step)
            assert all(_is_int(i) for ids in manifest["buckets"].values() for i in ids)
            for module in plan.modules.values():
                for assignment in module.assignments:
                    assert all(_is_int(i) for i in assignment.sample_ids())
                    assert _is_int(assignment.total_tokens())
            for bucket in bucket_samples(result.plan.module("backbone")):
                for microbatch in bucket:
                    for sample in microbatch:
                        assert all(
                            _is_int(getattr(sample, name))
                            for name in ("sample_id", "text_tokens", "image_tokens",
                                         "video_frames", "raw_bytes", "decoded_bytes")
                        )
                        assert type(sample.audio_seconds) is float
            assert _is_int(result.iteration.total_tokens)
            assert _is_int(result.iteration.peak_activation_tokens)
        for handle in system.loader_handles:
            snapshot = handle.call("replay_checkpoint")
            assert snapshot["buffer"] and all(_is_int(i) for i in snapshot["buffer"])
    finally:
        system.shutdown()
