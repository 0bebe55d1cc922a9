"""Every function the bench tracer wraps still exists where it looks it up.

A traced bench round (``python3 -m bench --quick``) replaces each
``(module, owner, attr)`` of ``bench.tracer.LAYERS`` through
``vars(owner)[attr]``.  A refactor of ``src/`` that deletes or renames one of
those functions makes every traced round raise ``KeyError``, which only the
end-to-end bench run would otherwise notice.  This check only reads
``bench/``: the tracer module is loaded from its file and nothing is wrapped.
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
