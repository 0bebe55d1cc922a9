"""Every function the bench tracer wraps still exists where it looks it up.

A traced bench round (``python3 -m bench --quick``) replaces each
``(module, owner, attr)`` of ``bench.tracer.LAYERS`` through
``vars(owner)[attr]``.  A refactor of ``src/`` that deletes or renames one of
those functions makes every traced round raise ``KeyError``, which only the
end-to-end bench run would otherwise notice.  This check only reads
``bench/``: the tracer module is loaded from its file and nothing is wrapped.
A second check runs a few text steps and counts the loader calls the
``core.source_loader`` layer is made of, so none of them is bypassed.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def traced_targets() -> list[tuple[str, str, str | None, str]]:
    spec = importlib.util.spec_from_file_location("bench_tracer_targets", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [
        (layer, module_name, owner_name, attr)
        for layer, targets in tracer.LAYERS.items()
        for module_name, owner_name, attr in targets
    ]


def test_every_traced_target_resolves():
    targets = traced_targets()
    assert targets
    missing = []
    for layer, module_name, owner_name, attr in targets:
        module = importlib.import_module(module_name)
        owner = module if owner_name is None else getattr(module, owner_name, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"{layer}: {module_name}.{owner_name or '<module>'}.{attr}")
    assert missing == []


#: The loader calls a step makes, each a span of ``core.source_loader``.
LOADER_CALLS = ("poll", "prepare_async", "refill", "buffer_delta", "fetch_prepared_ref")


def test_text_steps_make_every_traced_loader_call(monkeypatch):
    """Depth-2 steps of the text example call each of these loader methods
    through its class attribute, where the tracer wraps it: a refactor that
    inlines one would silently drop its spans from the per-layer counts."""
    from collections import Counter
    from dataclasses import replace

    from repro import MegaScaleData, TrainingJobSpec
    from repro.core.source_loader import SourceLoader

    traced = {attr for layer, _, _, attr in traced_targets() if layer == "core.source_loader"}
    assert set(LOADER_CALLS) <= traced
    system = MegaScaleData.deploy(replace(TrainingJobSpec.text_example(), prefetch_depth=2))
    calls = Counter()
    for name in LOADER_CALLS:
        plain = vars(SourceLoader)[name]

        def counted(self, *args, _name=name, _plain=plain, **kwargs):
            calls[_name] += 1
            return _plain(self, *args, **kwargs)

        monkeypatch.setattr(SourceLoader, name, counted)
    try:
        for _ in range(3):
            system.run_step(simulate=True)
    finally:
        system.shutdown()
    assert all(calls[name] for name in LOADER_CALLS), calls


def test_text_steps_collate_once_per_constructor_through_the_traced_globals(monkeypatch):
    """Depth-2 steps of the text example call ``collate_columns_with_positions``
    exactly once per constructor per step, through the
    ``repro.core.data_constructor`` global the tracer wraps, and that
    collation calls ``first_fit_bin_indices`` once through the
    ``repro.transforms.microbatch`` global: a refactor that inlines the
    kernel, or goes back to one collation per microbatch, fails here."""
    from dataclasses import replace

    from repro import MegaScaleData, TrainingJobSpec
    from repro.core import data_constructor
    from repro.transforms import microbatch

    traced = {
        (module_name, attr)
        for layer, module_name, _, attr in traced_targets()
        if layer == "transforms.microbatch"
    }
    assert traced == {
        ("repro.core.data_constructor", "collate_columns_with_positions"),
        ("repro.transforms.microbatch", "first_fit_bin_indices"),
    }
    calls: list[tuple] = []

    def counting(module, name):
        plain = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return plain(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    counting(data_constructor, "collate_columns_with_positions")
    counting(microbatch, "first_fit_bin_indices")
    construct = data_constructor.DataConstructor.construct

    def counted_construct(self, step, *args, **kwargs):
        calls.append(("construct", self.bucket_index, step))
        return construct(self, step, *args, **kwargs)

    monkeypatch.setattr(data_constructor.DataConstructor, "construct", counted_construct)
    job = replace(TrainingJobSpec.text_example(), prefetch_depth=2)
    assert job.num_microbatches > 1
    system = MegaScaleData.deploy(job)
    try:
        for _ in range(3):
            system.run_step(simulate=True)
    finally:
        system.shutdown()
    constructs = [call for call in calls if call[0] == "construct"]
    assert len(set(constructs)) == len(constructs) >= 3 * len(system.constructor_handles)
    assert calls == [
        entry
        for call in constructs
        for entry in (call, "collate_columns_with_positions", "first_fit_bin_indices")
    ]
