"""Byte pins of plans built from metadata records, recorded at ``20cbeca``.

Until ``20cbeca`` a DGraph also took metadata records: record lists or
``source -> records`` mappings, a selector called per record and cost
functions called per record (the Fig. 9 listing of
``examples/vlm_orchestration.py``, the table2 benchmark, ad-hoc selectors in
tests).  Every digest below was computed there, with no tolerance; the tests
recompute it with the records turned into columns once
(:meth:`SampleColumns.from_samples`), so moving planning onto columns only
changed no byte of those plans.

- ``HYBRID_PINS``: ``build_hybrid_plan`` of the VLM example (12 sources, records
  clipped to the context with ``with_updates``, ``EncoderCostModel`` /
  ``BackboneCostModel`` costs) per context length: both modules' rows, bins,
  ``estimated_costs`` (``repr``), demands and API costs.
- ``TABLE2_PIN``: table2's ``_measure_case`` with ``group_size=2``.
- ``TEXT_ONLY_PIN``: a DGraph over the text-only rows of a buffer (a selector
  that dropped image records), mixed, balanced on the default cost.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
from pathlib import Path

import pytest

from repro.core.columns import SampleColumns
from repro.core.cost_model import BackboneCostModel, EncoderCostModel
from repro.core.dgraph import DGraph
from repro.core.place_tree import ClientPlaceTree
from repro.data.mixture import MixtureSchedule
from repro.data.sources import SourceCursor
from repro.data.synthetic import build_source_catalog, navit_like_spec
from repro.parallelism.mesh import DeviceMesh
from repro.storage.filesystem import SimulatedFileSystem
from repro.training.models import VLMConfig, get_model

ROOT = Path(__file__).resolve().parents[1]

HYBRID_PINS = {
    4096: "3fd5d11ee4ab6de3f01d87a470a8e49747265c177c9bb463c4574c2bf224f8ef",
    8192: "53aa2bc313b5ca57a311c3d14fb79c318a28d1a29852a2206ed2a832f1e01350",
    16384: "3c12112a022bc2256a92afe9bc6d29791317932cd2ce8d81913777fd8ec5ffaf",
}
TABLE2_PIN = "1bfe592c75acd20771ad69fd212b79c6849bd2fd101eea2558254d66daf77009"
TEXT_ONLY_PIN = "a8ff9e848af7bf1873b18ba228b1d7c09fb821140958372cfc1d0aaf2d75a5ab"


def plan_digest(plan) -> str:
    """sha256 over every field of a DGraph plan and its subplans."""
    digest = hashlib.sha256()
    for part in [plan, *plan.subplan.values()]:
        module = part.module
        rows = module.rows
        digest.update(repr((
            module.module, module.axis, module.num_buckets, module.num_microbatches,
            rows.sample_ids.tolist(), rows.text_tokens.tolist(), rows.image_tokens.tolist(),
            [rows.sources[code] for code in rows.source_codes.tolist()],
            module.offsets, module.estimated_costs, module.balance_method,
            part.fetching_ranks, sorted(part.mixture_weights.items()),
            sorted(part.source_demands.items()), sorted(part.api_costs.items()),
        )).encode())
    return digest.hexdigest()


@pytest.fixture()
def examples(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "examples"))
    yield importlib.import_module("vlm_orchestration")
    for name in ("vlm_orchestration", "benchmark_utils_example"):
        sys.modules.pop(name, None)


@pytest.mark.parametrize("context_length", sorted(HYBRID_PINS))
def test_fig9_hybrid_plan_matches_the_record_plan(examples, context_length):
    mesh = DeviceMesh(pp=2, dp=4, cp=1, tp=2, gpus_per_node=16)
    model = VLMConfig(encoder=get_model("ViT-2B"), backbone=get_model("Llama-12B"))
    filesystem = SimulatedFileSystem()
    catalog = build_source_catalog(
        navit_like_spec(num_sources=12, samples_per_source=64, seed=1), filesystem
    )
    samples = examples.draw_samples(catalog, filesystem, 16 * mesh.size("DP"), context_length)
    plan = examples.build_hybrid_plan(
        SampleColumns.from_samples(samples),
        ClientPlaceTree(mesh),
        EncoderCostModel(model.encoder),
        BackboneCostModel(model.backbone),
        4,
    )
    assert plan_digest(plan) == HYBRID_PINS[context_length]


def test_table2_grouped_case_matches_the_record_case(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    table2 = importlib.import_module("benchmarks.test_table2_api_cost")
    filesystem = SimulatedFileSystem()
    catalog = build_source_catalog(
        navit_like_spec(num_sources=12, samples_per_source=64, seed=21), filesystem
    )
    mesh = DeviceMesh(pp=2, dp=8, cp=1, tp=2, gpus_per_node=16)
    row = table2._measure_case(catalog, filesystem, mesh, 8, 8192, 2)
    digest = hashlib.sha256(repr(sorted(row.items())).encode()).hexdigest()
    assert digest == TABLE2_PIN


def text_only_plan(small_catalog, filesystem, tree):
    records = [
        cursor.next_metadata()
        for cursor in (SourceCursor(source, filesystem) for source in small_catalog)
        for _ in range(64)
    ]
    rows = SampleColumns.from_samples(records)
    dgraph = DGraph.from_buffer_infos(rows.where(rows.image_tokens == 0)).init(tree)
    weights = {source.name: float(index + 1) for index, source in enumerate(small_catalog)}
    dgraph.with_step(3, seed=5).mix(MixtureSchedule.static(weights), sample_count=30)
    dgraph.distribute("DP").balance(num_microbatches=4).broadcast_at("TP")
    return dgraph.plan()


def test_text_only_rows_plan_matches_the_record_selector(small_catalog, filesystem, vlm_mesh):
    plan = text_only_plan(small_catalog, filesystem, ClientPlaceTree(vlm_mesh))
    assert plan_digest(plan) == TEXT_ONLY_PIN
