"""Guard: every definition in ``src/`` is reached from outside ``tests/``.

An AST scan collects each module-level and class-level ``def`` / ``class`` in
``src/`` and every reference made by ``src/``, ``bench/``, ``benchmarks/`` and
``examples/``. A reference is a ``Name``, an ``Attribute``, an imported name or
an identifier-shaped string constant (``handle.call("poll")``, the tracer's
``LAYERS``). ``__all__`` lists and package re-exports are not references,
and neither is a reference made inside the definition's own body (recursion,
a method naming itself in a string) nor the object of an attribute store
(``fn.attr = ...`` decorates a function, it does not use it).

A class member is reached only by an attribute (``self.next(...)``), a string,
or a bare name in its own class body (``visit_AsyncFunctionDef =
visit_FunctionDef``). A bare name anywhere else, an import included, binds a
local, a builtin or a module-level name: a local ``bucket_costs`` does not keep
``ModulePlan.bucket_costs`` alive, the builtin ``next()`` does not keep
``IdAllocator.next``, and importing the function ``imbalance_ratio`` does not
keep the method ``BalanceResult.imbalance_ratio``. Members are still matched by
name, not by type, so the scan errs towards keeping code: the
``file.read_row(...)`` in ``ColumnarReader.read_row`` reaches every class's
``read_row``, not only ``ColumnarFile``'s.

A definition that only tests reach is either deleted or listed in
``ALLOWLIST`` with the reason it stays. The same pass (:class:`Uses`) also
records the calls, value uses and attribute stores that
``test_no_dead_knobs.py`` checks parameters against.
"""

from __future__ import annotations

import ast
import functools
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
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
    "ActorSystem.pending_count": "probe: calls still queued or in flight",
    "DataConstructor.staging_backlog": "probe: staged-delivery backlog",
    "MemoryLedger.live_bytes": "probe: one category's live bytes",
    "SimulatedFileSystem.open_connection_count": "probe: leaked connections",
}


def python_files(directory: str, root: Path = ROOT) -> list[Path]:
    """Every ``.py`` file under ``root/directory``, in a stable order."""
    return sorted((root / directory).rglob("*.py"))


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
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


class Uses(ast.NodeVisitor):
    """One pass over a caller file, recording into ``facts``:

    - ``references[name]``: ``(is_bare_name, enclosing, class_scope)`` per
      reference, where ``enclosing`` holds the definitions it lies in and
      ``class_scope`` is the class whose body scope it is in, if any;
    - ``calls[name]``: ``(args, keywords, enclosing)`` per call of ``name``
      made outside any function named ``name``, ``enclosing`` empty unless
      the call is bare or on ``self`` / ``cls``; a string argument names a
      call too (``handle.call("poll", ticket)`` calls ``poll(ticket)``);
    - ``values``: names loaded other than as a callee;
    - ``assigned``: attributes stored on anything but ``self`` / ``cls``.
    """

    def __init__(self, facts: dict, reexports: bool = False) -> None:
        self.facts = facts
        self.reexports = reexports
        self.enclosing: tuple[ast.AST, ...] = ()
        self.classes: list[str] = []
        self.scope: ast.ClassDef | None = None
        self.store_objects: set[int] = set()

    def reference(self, name: str, bare: bool = False) -> None:
        self.facts["references"][name].append((bare, self.enclosing, self.scope))

    def _enter(self, node, visit_body) -> None:
        outer = self.enclosing, self.scope
        self.enclosing += (node,)
        visit_body()
        self.enclosing, self.scope = outer

    def visit_FunctionDef(self, node) -> None:
        def body() -> None:
            # Decorators, defaults and annotations are in the enclosing scope.
            for expr in [*node.decorator_list, node.args, node.returns]:
                if expr is not None:
                    self.visit(expr)
            self.scope = None
            for stmt in node.body:
                self.visit(stmt)

        self._enter(node, body)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node) -> None:
        outer = self.scope
        self.scope = None
        self.generic_visit(node)
        self.scope = outer

    def visit_ClassDef(self, node) -> None:
        def body() -> None:
            for expr in [*node.decorator_list, *node.bases, *node.keywords]:
                self.visit(expr)
            self.scope = node
            for stmt in node.body:
                self.visit(stmt)

        self.classes.append(node.name)
        self._enter(node, body)
        self.classes.pop()

    def visit_Assign(self, node) -> None:
        if not _is_dunder_all(node):
            self.generic_visit(node)

    visit_AugAssign = visit_AnnAssign = visit_Assign

    def visit_Import(self, node) -> None:
        if not self.reexports:
            for alias in node.names:
                # An import binds a bare name, as an assignment would.
                self.reference(alias.name.rsplit(".", 1)[-1], bare=True)

    visit_ImportFrom = visit_Import

    def visit_Constant(self, node) -> None:
        if isinstance(node.value, str) and _IDENT.match(node.value):
            self.reference(node.value)

    def visit_Call(self, node) -> None:
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "cls" and self.classes:
            name = self.classes[-1]
        receiver = getattr(getattr(func, "value", None), "id", None)
        own = isinstance(func, ast.Name) or receiver in ("self", "cls")
        # A call inside a function of the same name recurses or forwards to a
        # namesake (``self.engine.drain()`` in ``drain``): it passes nothing
        # a caller chose, so it is not recorded.
        forwards = any(
            outer.name == name
            for outer in self.enclosing
            if not isinstance(outer, ast.ClassDef)
        )
        if name and not forwards:
            inside = self.enclosing if own else ()
            self.facts["calls"][name].append((node.args, node.keywords, inside))
        for index, arg in enumerate(node.args):
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                self.facts["calls"][arg.value].append((node.args[index + 1 :], node.keywords, ()))
        # The callee is referenced but not used as a value.
        if isinstance(func, ast.Name):
            self.reference(func.id, bare=True)
        elif isinstance(func, ast.Attribute):
            self.reference(func.attr)
            self.visit(func.value)
        else:
            self.visit(func)
        for arg in node.args:
            self.visit(arg)
        for keyword in node.keywords:
            self.visit(keyword.value)

    def visit_Name(self, node) -> None:
        if isinstance(node.ctx, ast.Load):
            self.facts["values"].add(node.id)
        if id(node) not in self.store_objects:
            self.reference(node.id, bare=True)

    def visit_Attribute(self, node) -> None:
        if isinstance(node.ctx, ast.Load):
            self.facts["values"].add(node.attr)
        else:
            # ``obj.attr = ...`` uses ``attr``, not ``obj``.
            self.store_objects.add(id(node.value))
            if getattr(node.value, "id", None) not in ("self", "cls"):
                self.facts["assigned"].add(node.attr)
        if id(node) not in self.store_objects:
            self.reference(node.attr)
        self.generic_visit(node)


@functools.cache
def uses(root: Path = ROOT) -> dict:
    """The facts :class:`Uses` records over every caller file under ``root``."""
    facts = {
        "references": defaultdict(list),
        "calls": defaultdict(list),
        "values": set(),
        "assigned": set(),
    }
    src = root / "src"
    for directory in CALLER_DIRS:
        for path in python_files(directory, root):
            reexports = path.name == "__init__.py" and path.is_relative_to(src)
            Uses(facts, reexports).visit(parse(path))
    return facts


def _reaches(reference, node: ast.AST, owner: ast.ClassDef | None) -> bool:
    bare, enclosing, class_scope = reference
    if node in enclosing:
        return False
    return not bare or owner is None or class_scope is owner


@functools.cache
def scan(root: Path = ROOT):
    """Return ``(definitions, unreached)``: ``{qualified name: path:line}`` of
    every definition in ``src/``, and the names nothing outside ``tests/`` reaches."""
    references = uses(root)["references"]
    definitions: dict[str, str] = {}
    unreached: set[str] = set()
    for path in python_files("src", root):
        classes = {}
        for qual, node in _definitions(parse(path)):
            owner, _, short = qual.rpartition(".")
            if isinstance(node, ast.ClassDef):
                classes[qual] = node
            if short.startswith("__") and short.endswith("__"):
                continue
            definitions[qual] = f"{path.relative_to(root)}:{node.lineno}"
            owner_node = classes.get(owner)
            if not any(_reaches(ref, node, owner_node) for ref in references[short]):
                unreached.add(qual)
    return definitions, unreached


def test_every_definition_is_reached_outside_tests():
    definitions, unreached = scan()
    dead = sorted(f"{definitions[qual]} {qual}" for qual in unreached - ALLOWLIST.keys())
    assert not dead, "only tests reach these; delete them or allowlist with a reason:\n" + "\n".join(dead)


def test_allowlist_is_current():
    definitions, unreached = scan()
    gone = sorted(q for q in ALLOWLIST if q not in definitions)
    live = sorted(
        f"{definitions[q]} {q}" for q in ALLOWLIST if q in definitions and q not in unreached
    )
    assert not gone, f"allowlisted but no longer defined: {gone}"
    assert not live, "allowlisted but now referenced outside tests; drop the entry:\n" + "\n".join(live)


def test_allowlist_entries_have_reasons():
    assert len(ALLOWLIST) <= 14
    assert all(reason.strip() for reason in ALLOWLIST.values())
