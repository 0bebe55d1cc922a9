"""Guard: every defaulted parameter and dataclass field in ``src/`` is set from
outside ``tests/``.

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
in ``ALLOWLIST`` with the reason it stays. The field scan below holds the
defaulted ``__init__`` fields of ``src/`` dataclasses to the same rule, with
``FIELD_ALLOWLIST``.
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
def _facts() -> dict:
    facts = {"calls": defaultdict(list), "values": set(), "assigned": set()}
    for directory in CALLER_DIRS:
        for path in python_files(directory):
            _Uses(facts).visit(parse(path))
    return facts


@functools.cache
def _src_definitions() -> tuple[list, dict]:
    """``(functions, classes)``: ``(path, qual, node)`` of every ``src/`` function,
    and ``{qual: (path, node)}`` of every ``src/`` class."""
    functions, classes = [], {}
    for path in python_files("src"):
        for qual, node in _definitions(parse(path)):
            if isinstance(node, ast.ClassDef):
                classes[qual] = (path, node)
            else:
                functions.append((path, qual, node))
    return functions, classes


def _base_names(node: ast.ClassDef) -> set[str]:
    return {getattr(base, "id", getattr(base, "attr", None)) for base in node.bases}


def _family(cls: str) -> set[str]:
    """``cls`` and, transitively, every class deriving from it."""
    _, classes = _src_definitions()
    names = {cls.rsplit(".", 1)[-1]}
    while grown := {
        q.rsplit(".", 1)[-1] for q, (_, node) in classes.items() if _base_names(node) & names
    } - names:
        names |= grown
    return names


@functools.cache
def scan():
    """Return ``(defaulted, unpassed)``: ``{label: path:line}`` of every
    defaulted parameter in ``src/``, and the subset no non-test call passes."""
    facts = _facts()
    functions, classes = _src_definitions()
    defaulted, unpassed = {}, {}
    for path, qual, node in functions:
        owner, _, name = qual.rpartition(".")
        is_method = owner in classes
        static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
        offset = 1 if is_method and not static else 0
        callees = _family(owner) if name == "__init__" else {name}
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
    assert len(ALLOWLIST) <= 5
    assert all(reason.strip() for reason in ALLOWLIST.values())


# Dataclass fields. A defaulted ``__init__`` field is set outside ``tests/`` when
# a constructor call of the class (a subclass, or ``cls(...)`` inside the class)
# names it by keyword, reaches it by position or splats ``*`` / ``**``; when
# ``replace(obj, <field>=...)`` names it (``replace(self, **changes)`` inside the
# class sets every field); or when ``obj.<field> = ...`` assigns it. Fields marked
# ``ClassVar`` or ``field(init=False)`` are not settable and not counted.

# "Class.field" -> why it stays settable although only tests set it.
FIELD_ALLOWLIST = {
    "TrainingJobSpec.cpu_pods": "deployment: CPU pods in the default cluster deploy() builds",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        "dataclass" in (getattr(target, "id", None), getattr(target, "attr", None))
        for decorator in node.decorator_list
        for target in [decorator.func if isinstance(decorator, ast.Call) else decorator]
    )


def _own_fields(node: ast.ClassDef) -> list[tuple[str, int, bool]]:
    """``(name, line, defaulted)`` of each ``__init__`` field the class declares."""
    found = []
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(stmt.annotation):
            continue
        value = stmt.value
        is_field = isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"
        options = {keyword.arg: keyword.value for keyword in value.keywords} if is_field else {}
        init = options.get("init")
        if isinstance(init, ast.Constant) and init.value is False:
            continue
        defaulted = value is not None and (
            not is_field or "default" in options or "default_factory" in options
        )
        found.append((stmt.target.id, stmt.lineno, defaulted))
    return found


@functools.cache
def _init_fields(qual: str) -> tuple[str, ...]:
    """Every ``__init__`` field of the dataclass ``qual`` in order, bases first."""
    _, classes = _src_definitions()
    short = {q.rsplit(".", 1)[-1]: q for q, (_, node) in classes.items() if _is_dataclass(node)}
    order: list[str] = []
    for base in _base_names(classes[qual][1]):
        if base in short:
            order += _init_fields(short[base])
    for name, _, _ in _own_fields(classes[qual][1]):
        if name not in order:
            order.append(name)
    return tuple(order)


@functools.cache
def field_scan():
    """Return ``(defaulted, unset)``: ``{"Class.field": path:line}`` of every
    defaulted dataclass field in ``src/``, and the subset nothing outside
    ``tests/`` sets."""
    facts = _facts()
    functions, classes = _src_definitions()
    owner_of = {id(node): qual.rpartition(".")[0] for _, qual, node in functions}
    replaced, replaced_all = set(), set()
    for args, keywords, inside in facts["calls"]["replace"]:
        names = {keyword.arg for keyword in keywords}
        replaced |= names - {None}
        if None in names and args and getattr(args[0], "id", None) == "self" and inside:
            replaced_all.add(owner_of.get(id(inside[-1])))

    defaulted, unset = {}, {}
    for qual, (path, node) in classes.items():
        if not _is_dataclass(node):
            continue
        order = _init_fields(qual)
        calls = [call for callee in _family(qual) for call in facts["calls"][callee]]
        for name, line, has_default in _own_fields(node):
            if not has_default:
                continue
            label = f"{qual}.{name}"
            defaulted[label] = f"{path.relative_to(ROOT)}:{line}"
            if qual in replaced_all or name in replaced or name in facts["assigned"]:
                continue
            if not any(_passes(call, name, order.index(name), 0) for call in calls):
                unset[label] = defaulted[label]
    return defaulted, unset


def test_every_defaulted_field_is_set_outside_tests():
    _, unset = field_scan()
    dead = sorted(f"{where} {label}" for label, where in unset.items() if label not in FIELD_ALLOWLIST)
    assert not dead, (
        "only tests set these fields; make each a constant, a field(init=False), "
        "or allowlist it with a reason:\n" + "\n".join(dead)
    )


def test_field_allowlist_is_current():
    defaulted, unset = field_scan()
    gone = sorted(label for label in FIELD_ALLOWLIST if label not in defaulted)
    live = sorted(
        f"{defaulted[label]} {label}"
        for label in FIELD_ALLOWLIST
        if label in defaulted and label not in unset
    )
    assert not gone, f"allowlisted but no longer a defaulted field: {gone}"
    assert not live, "allowlisted but now set outside tests; drop the entry:\n" + "\n".join(live)


def test_field_allowlist_entries_have_reasons():
    assert len(FIELD_ALLOWLIST) <= 3
    assert all(reason.strip() for reason in FIELD_ALLOWLIST.values())
