"""Guard: every definition in ``src/`` is reached from outside ``tests/``.

An AST scan collects each module-level and class-level ``def`` / ``class`` in
``src/`` and every reference made by ``src/``, ``bench/``, ``benchmarks/`` and
``examples/``. A reference is a ``Name``, an ``Attribute``, an imported name or
an identifier-shaped string constant (``handle.call("poll")``, the tracer's
``LAYERS``). ``__all__`` lists and package re-exports are not references,
and neither is a reference made inside the definition's own body (recursion,
a method naming itself in a string). Matching is by name alone, so it errs
towards keeping code: ``ColumnarReader.read_row`` lives because
``ColumnarFile.read_row`` is called.

A definition that only tests reach is either deleted or listed in
``ALLOWLIST`` with the reason it stays.
"""

from __future__ import annotations

import ast
import functools
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CALLER_DIRS = ("src", "bench", "benchmarks", "examples")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# "Class.member" or "function" -> why it stays although only tests reach it.
ALLOWLIST = {
    # Documented in the README.
    "MegaScaleData.handle_reshard": "README: resharding entry point",
    "DGraph.lineage": "README: per-sample lineage query",
    # Oracles that tests compare the program against.
    "OverlapLedger.from_timeline": "oracle: overlap rebuilt from the timeline",
    "metadata_from_record": "oracle: metadata rebuilt from a stored record",
    "DeviceMesh.data_consumers": "oracle: data-consuming ranks of the mesh",
    # Fixtures the golden pins are defined over.
    "TrainingJobSpec.vlm_example": "fixture: golden VLM job",
    "TrainingJobSpec.text_example": "fixture: golden text job",
    # Probes that tests read invariants through.
    "Node.reserved_cpu": "probe: reservation conservation",
    "PlacementScheduler.tenant_usage": "probe: per-tenant quota use",
    "ChaosEngine.blackout_active": "probe: blackout window state",
    "MixtureDrivenScaler.total_current_actors": "probe: fleet size",
    "DataConstructor.staging_backlog": "probe: staged-delivery backlog",
    "DGraph.selected_samples": "probe: samples a plan kept",
    "StepResult.fetched_bytes": "probe: bytes fetched per step",
    "SimulatedFileSystem.open_connection_count": "probe: leaked connections",
}


def python_files(directory: str) -> list[Path]:
    """Every ``.py`` file under ``ROOT/directory``, in a stable order."""
    return sorted((ROOT / directory).rglob("*.py"))


@functools.cache
def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _definitions(tree: ast.Module, qual: str = ""):
    """Yield ``(qualified_name, node)`` for module- and class-level defs."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{qual}{node.name}"
            yield name, node
            if isinstance(node, ast.ClassDef):
                yield from _definitions(node, f"{name}.")


def _is_dunder_all(node: ast.AST) -> bool:
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _references(path: Path):
    """Yield every name ``path`` references."""
    tree = parse(path)
    reexports = path.name == "__init__.py" and path.is_relative_to(SRC)
    skip: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and _is_dunder_all(node):
            skip.update(id(sub) for sub in ast.walk(node))
    yield from _names(tree, skip, reexports)


def _names(tree: ast.AST, skip: set[int] = frozenset(), reexports: bool = False):
    """Yield every name referenced under ``tree``."""
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and not reexports:
            for alias in node.names:
                yield alias.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _IDENT.match(node.value):
                yield node.value


@functools.cache
def scan():
    """Return ``(definitions, referenced)``.

    ``definitions`` maps a qualified name to ``(path:line, self_references)``,
    the second being how often the definition's body names itself;
    ``referenced`` counts every name referenced outside ``tests/``.
    """
    definitions: dict[str, tuple[str, int]] = {}
    for path in python_files("src"):
        for qual, node in _definitions(parse(path)):
            short = qual.rsplit(".", 1)[-1]
            if not (short.startswith("__") and short.endswith("__")):
                self_references = sum(name == short for name in _names(node))
                definitions[qual] = (f"{path.relative_to(ROOT)}:{node.lineno}", self_references)
    referenced = Counter(
        name
        for directory in CALLER_DIRS
        for path in python_files(directory)
        for name in _references(path)
    )
    return definitions, referenced


def _reached(qual: str, definitions, referenced: Counter) -> bool:
    return referenced[qual.rsplit(".", 1)[-1]] > definitions[qual][1]


def test_every_definition_is_reached_outside_tests():
    definitions, referenced = scan()
    dead = sorted(
        f"{where} {qual}"
        for qual, (where, _) in definitions.items()
        if not _reached(qual, definitions, referenced) and qual not in ALLOWLIST
    )
    assert not dead, "only tests reach these; delete them or allowlist with a reason:\n" + "\n".join(dead)


def test_allowlist_is_current():
    definitions, referenced = scan()
    gone = sorted(q for q in ALLOWLIST if q not in definitions)
    live = sorted(
        f"{definitions[q][0]} {q}"
        for q in ALLOWLIST
        if q in definitions and _reached(q, definitions, referenced)
    )
    assert not gone, f"allowlisted but no longer defined: {gone}"
    assert not live, "allowlisted but now referenced outside tests; drop the entry:\n" + "\n".join(live)


def test_allowlist_entries_have_reasons():
    assert len(ALLOWLIST) <= 15
    assert all(reason.strip() for reason in ALLOWLIST.values())
