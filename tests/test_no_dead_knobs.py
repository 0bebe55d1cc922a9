"""Guard: every defaulted parameter in ``src/`` is passed from outside ``tests/``.

A defaulted parameter that no call in ``src/``, ``bench/``, ``benchmarks/`` or
``examples/`` passes has one value in use, its default, so it is a constant.
The AST scan counts a parameter as passed when, outside ``tests/``:

- a call whose callee name is the function's (for ``__init__``: the class, a
  subclass, or ``cls(...)`` inside the class) passes it by keyword, passes
  enough positional arguments to reach it, or splats ``*`` / ``**``;
- a call names the method as a string constant and passes it after that
  string (``handle.call("replay_demands", ids, True)``);
- the function is used as a value rather than called
  (``self._issue = ActorHandle.call_settled``), which keeps all its parameters;
- ``obj.<param> = ...`` assigns a parameter the function stores as
  ``self.<param>`` (``scaler.consecutive_intervals = 2``).

A call from inside the function's own body to the function itself
(``name(...)``, or ``self.name(...)`` in a method) does not count; a
delegation to another object's namesake (``self.engine.drain(deadline_s)``)
does. Matching is by name alone, so the scan errs towards keeping
parameters. A parameter only tests pass is either made a constant or listed
in ``ALLOWLIST`` with the reason it stays.
"""

from __future__ import annotations

import ast
import functools
from collections import defaultdict

from test_no_dead_surface import CALLER_DIRS, ROOT, _definitions, parse, python_files

# "Qual.func(param=)" (a class for ``__init__``) -> why it stays settable.
ALLOWLIST = {
    # Deployment settings.
    "SqliteCheckpointStore(path=)": "deployment: the database file path",
    "MegaScaleData.restore(cluster=)": "deployment: the twin of deploy(cluster=)",
    # Oracles that tests compare the program against.
    "DeviceMesh.data_consumers(axis=)": "oracle: the allowlisted data_consumers oracle",
    "build_rank_slices(broadcast_tp=)": "oracle: slicing reference in every TP broadcast mode",
    "build_rank_slices(broadcast_cp=)": "oracle: slicing reference in every CP broadcast mode",
    # A supported platform.
    "TenantManager(backend=)": "platform: co-tenants byte-identical on the wallclock backend",
    "TenantManager(time_scale=)": "platform: the wallclock backend's time scale",
}


def _label(qual: str, param: str) -> str:
    return f"{qual.removesuffix('.__init__')}({param}=)"


def _defaulted(node: ast.FunctionDef) -> list[tuple[str, int | None]]:
    """``(name, positional index or None)`` of every parameter with a default."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    found = [(arg.arg, index) for index, arg in enumerate(positional) if index >= first]
    found += [
        (arg.arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default
    ]
    return found


def _stored(node: ast.FunctionDef) -> set[str]:
    """Attributes the function assigns as ``self.<name> = ...``."""
    return {
        target.attr
        for sub in ast.walk(node)
        if isinstance(sub, ast.Assign)
        for target in sub.targets
        if isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    }


class _Uses(ast.NodeVisitor):
    """Calls, string-named calls, value uses and attribute stores of one file."""

    def __init__(self, facts: dict) -> None:
        self.facts = facts
        self.enclosing: list[ast.AST] = []
        self.classes: list[str] = []

    def visit_FunctionDef(self, node) -> None:
        self.enclosing.append(node)
        self.generic_visit(node)
        self.enclosing.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node) -> None:
        self.classes.append(node.name)
        self.generic_visit(node)
        self.classes.pop()

    def visit_Call(self, node) -> None:
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "cls" and self.classes:
            name = self.classes[-1]
        # Only a bare or ``self.``/``cls.`` call can be the function calling itself.
        receiver = getattr(getattr(func, "value", None), "id", None)
        own = isinstance(func, ast.Name) or receiver in ("self", "cls")
        inside = tuple(self.enclosing) if own else ()
        if name:
            self.facts["calls"][name].append((node.args, node.keywords, inside))
        for index, arg in enumerate(node.args):
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                rest = node.args[index + 1 :]
                self.facts["calls"][arg.value].append((rest, node.keywords, ()))
        # The callee itself is called, not used as a value: visit its receiver only.
        if isinstance(func, ast.Attribute):
            self.visit(func.value)
        elif not isinstance(func, ast.Name):
            self.visit(func)
        for arg in node.args:
            self.visit(arg)
        for keyword in node.keywords:
            self.visit(keyword.value)

    def visit_Name(self, node) -> None:
        if isinstance(node.ctx, ast.Load):
            self.facts["values"].add(node.id)

    def visit_Attribute(self, node) -> None:
        if isinstance(node.ctx, ast.Load):
            self.facts["values"].add(node.attr)
        elif not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")):
            self.facts["assigned"].add(node.attr)
        self.generic_visit(node)


def _passes(call, param: str, index: int | None, offset: int) -> bool:
    args, keywords, _ = call
    if any(isinstance(arg, ast.Starred) for arg in args):
        return True
    if any(keyword.arg in (None, param) for keyword in keywords):
        return True
    return index is not None and len(args) + offset > index


@functools.cache
def scan():
    """Return ``(defaulted, unpassed)``: ``{label: path:line}`` of every
    defaulted parameter in ``src/``, and the subset no non-test call passes."""
    facts = {"calls": defaultdict(list), "values": set(), "assigned": set()}
    for directory in CALLER_DIRS:
        for path in python_files(directory):
            _Uses(facts).visit(parse(path))

    functions, bases = [], {}
    for path in python_files("src"):
        for qual, node in _definitions(parse(path)):
            if isinstance(node, ast.ClassDef):
                bases[qual] = {getattr(base, "id", getattr(base, "attr", None)) for base in node.bases}
            else:
                functions.append((path, qual, node))

    def family(cls: str) -> set[str]:
        """``cls`` and, transitively, every class deriving from it."""
        names = {cls.rsplit(".", 1)[-1]}
        while grown := {q.rsplit(".", 1)[-1] for q, b in bases.items() if b & names} - names:
            names |= grown
        return names

    defaulted, unpassed = {}, {}
    for path, qual, node in functions:
        owner, _, name = qual.rpartition(".")
        is_method = owner in bases
        static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
        offset = 1 if is_method and not static else 0
        callees = family(owner) if name == "__init__" else {name}
        as_value = name != "__init__" and name in facts["values"]
        calls = [
            call
            for callee in callees
            for call in facts["calls"][callee]
            if node not in call[2]  # the function calling itself
        ]
        for param, index in _defaulted(node):
            label = _label(qual, param)
            defaulted[label] = f"{path.relative_to(ROOT)}:{node.lineno}"
            if as_value or (param in facts["assigned"] and param in _stored(node)):
                continue
            if not any(_passes(call, param, index, offset) for call in calls):
                unpassed[label] = defaulted[label]
    return defaulted, unpassed


def test_every_defaulted_parameter_is_passed_outside_tests():
    _, unpassed = scan()
    dead = sorted(f"{where} {label}" for label, where in unpassed.items() if label not in ALLOWLIST)
    assert not dead, (
        "only tests pass these; make each a constant or allowlist it with a reason:\n"
        + "\n".join(dead)
    )


def test_allowlist_is_current():
    defaulted, unpassed = scan()
    gone = sorted(label for label in ALLOWLIST if label not in defaulted)
    live = sorted(
        f"{defaulted[label]} {label}"
        for label in ALLOWLIST
        if label in defaulted and label not in unpassed
    )
    assert not gone, f"allowlisted but no longer a defaulted parameter: {gone}"
    assert not live, "allowlisted but now passed outside tests; drop the entry:\n" + "\n".join(live)


def test_allowlist_entries_have_reasons():
    assert len(ALLOWLIST) <= 7
    assert all(reason.strip() for reason in ALLOWLIST.values())
