"""Guard: the step path moves typed columns, never ``SampleMetadata`` records.

From the row group to the simulator a sample is a row of arrays: the loader
buffer, the Planner's gather, a module plan's rows and the trainer's token
arrays.  Planning takes and gives columns only: the planning modules import
nothing from :mod:`repro.data.samples`.  These tests check those imports,
count ``SampleMetadata.__init__`` over steady-state steps (it must be zero)
and ``SampleColumns.__init__`` (it must not grow with the number of
microbatch bins), pin the planned rows, read back as records from the
catalog's files, to digests of the records plans used to carry, and check
that what reaches digests, manifests, plan records and checkpoints is
Python ints.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from repro import MegaScaleData, TrainingJobSpec
from repro.core.columns import SampleColumns
from repro.data.samples import SampleMetadata, metadata_from_record
from conftest import bucket_samples, plan_bins

SRC = Path(__file__).resolve().parents[1] / "src"
#: The modules a plan is made in: they see sample columns only.
PLANNING_MODULES = ("columns", "dgraph", "strategies", "planner", "plans")


def imports_from(path: Path) -> set[str]:
    """Every module ``path`` imports from, anywhere in the file."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            found.add(node.module or "")
        elif isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
    return found


@pytest.mark.parametrize("module", PLANNING_MODULES)
def test_planning_modules_import_nothing_from_the_record_module(module):
    imported = imports_from(SRC / "repro" / "core" / f"{module}.py")
    assert not {name for name in imported if name.startswith("repro.data.samples")}, imported

JOBS = {
    "vlm": TrainingJobSpec.vlm_example,
    "text": TrainingJobSpec.text_example,
}

#: sha256 over every field of the backbone's and the encoder's planned records
#: (each plan's rows, ``bucket_samples``, read back from the catalog's files by
#: ``catalog_records``) of steps 3-5 (seed 0, both depths), recorded with the
#: record-carrying data path, where the plan held the very records the loaders
#: had decoded.
RECORD_DIGESTS = {
    "vlm": "1dd8c631ce4675243b9a136fe0a1e4238ab0caaf3890da99970d2365bcdf85dc",
    "text": "e9ec60cf40a601a3a088cf0bb7f1c59d7dbf814d233d20a1a6c7e5c666c052f6",
}


def catalog_records(system):
    """A reader of rows' records: each row is read as one stored row of its
    source's files and built by the oracle :func:`metadata_from_record`."""
    located = {}
    for source in system.catalog:
        for path in source.paths:
            file = system.filesystem.read(path)
            for row, sample_id in enumerate(file.column("sample_id").tolist()):
                located.setdefault((source.name, sample_id), (file, row))

    def records(rows: SampleColumns) -> list[SampleMetadata]:
        found = []
        for sample_id, code in zip(rows.sample_ids.tolist(), rows.source_codes.tolist()):
            file, row = located[rows.sources[code], sample_id]
            found.append(metadata_from_record(file.read_row(row), rows.sources[code]))
        return found

    return records


def record_digest(system, results) -> str:
    records = catalog_records(system)
    digest = hashlib.sha256()
    for result in results:
        for module in ("backbone", "encoder"):
            plan = result.plan.modules.get(module)
            for bucket in bucket_samples(plan) if plan else []:
                for microbatch in bucket:
                    for s in records(microbatch):
                        digest.update(repr((
                            result.step, s.sample_id, s.source, s.modality.value,
                            s.text_tokens, s.image_tokens, s.video_frames,
                            s.audio_seconds, s.raw_bytes, s.decoded_bytes, s.extra,
                        )).encode())
                    digest.update(b"|")
    return digest.hexdigest()


def _counted_inits(monkeypatch, cls) -> list[int]:
    """A list that grows by one per ``cls`` instance built from now on."""
    built: list[int] = []
    init = cls.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting)
    return built


@pytest.fixture()
def count_records(monkeypatch):
    return _counted_inits(monkeypatch, SampleMetadata)


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
        # Read back from the catalog, the rows are the records the
        # record-carrying path held.
        assert record_digest(system, results) == RECORD_DIGESTS[job_name]
    finally:
        system.shutdown()


@pytest.fixture()
def count_column_sets(monkeypatch):
    return _counted_inits(monkeypatch, SampleColumns)


@pytest.mark.parametrize("depth", [0, 2])
@pytest.mark.parametrize("job_name", sorted(JOBS))
def test_column_sets_per_step_do_not_grow_with_the_bin_count(job_name, depth, count_column_sets):
    """A plan is one row selection per module plus bin offsets: doubling the
    microbatches (and so the bins) builds no more ``SampleColumns`` per step."""
    per_step = {}
    for microbatches in (4, 8):
        job = replace(JOBS[job_name](), prefetch_depth=depth, seed=0, num_microbatches=microbatches)
        system = MegaScaleData.deploy(job)
        try:
            for _ in range(3):
                system.run_step(simulate=True)
            count_column_sets.clear()
            for _ in range(3):
                system.run_step(simulate=True)
            per_step[microbatches] = len(count_column_sets) / 3
        finally:
            system.shutdown()
    assert per_step[4] == per_step[8], per_step


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
                for _, _, ids, _ in plan_bins(module):
                    assert all(_is_int(i) for i in ids)
                assert all(_is_int(i) for i in module.offsets)
            assert _is_int(result.iteration.total_tokens)
            assert _is_int(result.iteration.peak_activation_tokens)
        for handle in system.loader_handles:
            snapshot = handle.call("replay_checkpoint")
            assert snapshot["buffer"] and all(_is_int(i) for i in snapshot["buffer"])
    finally:
        system.shutdown()
