"""Guard: every parameter and dataclass field in ``src/`` takes more than one
value outside ``tests/``.

A defaulted parameter that no call in ``src/``, ``bench/``, ``benchmarks/`` or
``examples/`` passes has one value in use, its default, so it is a constant.
So is a parameter, defaulted or required, that every such call passes as the
same literal (``broadcast_at(..., "TP")`` everywhere); a call that leaves a
parameter out passes its default, and only a literal default counts as a
literal. The AST scan counts a parameter as passed when, outside ``tests/``:

- a call whose callee name is the function's (for ``__init__``: the class, a
  subclass, or ``cls(...)`` inside the class) passes it by keyword, passes
  enough positional arguments to reach it, or splats ``*`` / ``**``;
- a call names the method as a string constant and passes it after that
  string (``handle.call("replay_demands", ids, True)``);
- the function is used as a value rather than called
  (``self._issue = ActorHandle.call_settled``), which keeps all its parameters;
- ``obj.<param> = ...`` assigns a parameter the function stores as
  ``self.<param>`` (``scaler.consecutive_intervals = 2``).

A splat, a variable, any other expression, or two different literals keep a
parameter. A call from inside the function's own body to the function itself
(``name(...)``, or ``self.name(...)`` in a method) does not count; a
delegation to another object's namesake (``self.engine.drain(deadline_s)``)
does. Matching is by name alone, so the scan errs towards keeping
parameters. A parameter only tests pass is either made a constant or listed
in ``ALLOWLIST`` with the reason it stays; one every caller passes as the same
literal, in ``LITERAL_ALLOWLIST``. The field scan below holds the ``__init__``
fields of ``src/`` dataclasses to the same rules, with ``FIELD_ALLOWLIST``.
The calls, value uses and attribute stores come from the one pass
``test_no_dead_surface.py`` makes (:func:`uses`).
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path

from test_no_dead_surface import ROOT, _definitions, parse, python_files, uses

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

# A parameter label or "Class.field" -> why it stays although every caller
# outside ``tests/`` passes it the same literal.
LITERAL_ALLOWLIST = {
    "DGraph.broadcast_at(target_dim=)": "paper Table 2 primitive: broadcast along a mesh axis",
    # The paper's pipeline and context axes: every figure and example runs one
    # stage and one CP rank, but the end-to-end tests deploy PP=2 and CP=2 jobs
    # through them, the layouts the data-consumer deduplication exists for.
    "TrainingJobSpec.pp": "paper 4D parallelism: pipeline stages of the job's mesh",
    "TrainingJobSpec.cp": "paper 4D parallelism: context-parallel ranks of the job's mesh",
}

#: What :func:`_argument` returns when a ``*`` / ``**`` splat may carry the argument.
_SPLAT = object()


def _label(qual: str, param: str) -> str:
    return f"{qual.removesuffix('.__init__')}({param}=)"


def _parameters(
    node: ast.FunctionDef, offset: int
) -> list[tuple[str, int | None, ast.expr | None]]:
    """``(name, positional index or None, default or None)`` of every named
    parameter after the first ``offset`` (``self`` / ``cls``)."""
    args = node.args
    positional = args.posonlyargs + args.args
    defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
    found = [
        (arg.arg, index, default)
        for index, (arg, default) in enumerate(zip(positional, defaults))
        if index >= offset
    ]
    found += [(arg.arg, None, default) for arg, default in zip(args.kwonlyargs, args.kw_defaults)]
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


def _argument(call, param: str, index: int | None, offset: int):
    """What ``call`` passes as ``param``: the expression, ``None`` when the call
    leaves it out, or ``_SPLAT`` when a ``*`` / ``**`` may carry it."""
    args, keywords, _ = call
    for keyword in keywords:
        if keyword.arg == param:
            return keyword.value
    if index is not None:
        position = index - offset
        if any(isinstance(arg, ast.Starred) for arg in args[: position + 1]):
            return _SPLAT
        if position < len(args):
            return args[position]
    if any(isinstance(arg, ast.Starred) for arg in args) or any(k.arg is None for k in keywords):
        return _SPLAT
    return None


def _literal(node) -> str | None:
    """``repr`` of a constant expression (``True``, ``"TP"``, ``-1``), else ``None``."""
    if isinstance(node, ast.Constant) or (
        isinstance(node, ast.UnaryOp) and isinstance(node.operand, ast.Constant)
    ):
        try:
            return repr(ast.literal_eval(node))
        except ValueError:
            return None
    return None


def _judge(passed: list, default) -> tuple[bool, str | None]:
    """``(unpassed, literal)`` for one parameter or field, given what each call
    passes (:func:`_argument`): whether every call leaves it out, and the one
    literal every call passes, if there is one."""
    if default is not None and all(value is None for value in passed):
        return True, None
    literals = {_literal(default if value is None else value) for value in passed}
    return False, literals.pop() if len(literals) == 1 else None


@functools.cache
def _src_definitions(root: Path = ROOT) -> tuple[list, dict]:
    """``(functions, classes)``: ``(path, qual, node)`` of every ``src/`` function,
    and ``{qual: (path, node)}`` of every ``src/`` class."""
    functions, classes = [], {}
    for path in python_files("src", root):
        for qual, node in _definitions(parse(path)):
            if isinstance(node, ast.ClassDef):
                classes[qual] = (path, node)
            else:
                functions.append((path, qual, node))
    return functions, classes


def _base_names(node: ast.ClassDef) -> set[str]:
    return {getattr(base, "id", getattr(base, "attr", None)) for base in node.bases}


def _family(cls: str, root: Path) -> set[str]:
    """``cls`` and, transitively, every class deriving from it."""
    _, classes = _src_definitions(root)
    names = {cls.rsplit(".", 1)[-1]}
    while grown := {
        q.rsplit(".", 1)[-1] for q, (_, node) in classes.items() if _base_names(node) & names
    } - names:
        names |= grown
    return names


@functools.cache
def scan(root: Path = ROOT):
    """Return ``(defaulted, unpassed, literal)``: ``{label: path:line}`` of
    every defaulted parameter in ``src/`` and of the subset no non-test call
    passes, and ``{label: (path:line, literal)}`` of every parameter each
    non-test call passes as that one literal."""
    facts = uses(root)
    functions, classes = _src_definitions(root)
    defaulted, unpassed, literal = {}, {}, {}
    for path, qual, node in functions:
        owner, _, name = qual.rpartition(".")
        is_method = owner in classes
        static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
        offset = 1 if is_method and not static else 0
        callees = _family(owner, root) if name == "__init__" else {name}
        as_value = name != "__init__" and name in facts["values"]
        calls = [
            call
            for callee in callees
            for call in facts["calls"][callee]
            if node not in call[2]  # the function calling itself
        ]
        where = f"{path.relative_to(root)}:{node.lineno}"
        for param, index, default in _parameters(node, offset):
            label = _label(qual, param)
            if default is not None:
                defaulted[label] = where
            if as_value or (param in facts["assigned"] and param in _stored(node)):
                continue
            passed = [_argument(call, param, index, offset) for call in calls]
            none, one = _judge(passed, default)
            if none:
                unpassed[label] = where
            elif one is not None:
                literal[label] = (where, one)
    return defaulted, unpassed, literal


def test_every_defaulted_parameter_is_passed_outside_tests():
    _, unpassed, _ = scan()
    dead = sorted(f"{where} {label}" for label, where in unpassed.items() if label not in ALLOWLIST)
    assert not dead, (
        "only tests pass these; make each a constant or allowlist it with a reason:\n"
        + "\n".join(dead)
    )


def test_allowlist_is_current():
    defaulted, unpassed, _ = scan()
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


# Dataclass fields. An ``__init__`` field is set outside ``tests/`` when a
# constructor call of the class (a subclass, or ``cls(...)`` inside the class)
# names it by keyword, reaches it by position or splats ``*`` / ``**``; when
# ``replace(obj, <field>=...)`` names it (``replace(self, **changes)`` inside the
# class sets every field); or when ``obj.<field> = ...`` assigns it. The last
# two keep a field whatever they assign. Fields marked ``ClassVar`` or
# ``field(init=False)`` are not settable and not counted.

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


def _own_fields(node: ast.ClassDef) -> list[tuple[str, int, ast.expr | None]]:
    """``(name, line, default or None)`` of each ``__init__`` field the class
    declares; a ``default_factory`` is its call, never a literal."""
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
        if is_field:
            value = options.get("default", options.get("default_factory") and value)
        found.append((stmt.target.id, stmt.lineno, value))
    return found


@functools.cache
def _init_fields(qual: str, root: Path) -> tuple[str, ...]:
    """Every ``__init__`` field of the dataclass ``qual`` in order, bases first."""
    _, classes = _src_definitions(root)
    short = {q.rsplit(".", 1)[-1]: q for q, (_, node) in classes.items() if _is_dataclass(node)}
    order: list[str] = []
    for base in _base_names(classes[qual][1]):
        if base in short:
            order += _init_fields(short[base], root)
    for name, _, _ in _own_fields(classes[qual][1]):
        if name not in order:
            order.append(name)
    return tuple(order)


@functools.cache
def field_scan(root: Path = ROOT):
    """Return ``(defaulted, unset, literal)`` over dataclass fields, labelled
    ``"Class.field"``, as :func:`scan` does over parameters."""
    facts = uses(root)
    functions, classes = _src_definitions(root)
    owner_of = {id(node): qual.rpartition(".")[0] for _, qual, node in functions}
    replaced, replaced_all = set(), set()
    for args, keywords, inside in facts["calls"]["replace"]:
        names = {keyword.arg for keyword in keywords}
        replaced |= names - {None}
        if None in names and args and getattr(args[0], "id", None) == "self" and inside:
            replaced_all.add(owner_of.get(id(inside[-1])))

    defaulted, unset, literal = {}, {}, {}
    for qual, (path, node) in classes.items():
        if not _is_dataclass(node):
            continue
        order = _init_fields(qual, root)
        calls = [call for callee in _family(qual, root) for call in facts["calls"][callee]]
        for name, line, default in _own_fields(node):
            label = f"{qual}.{name}"
            where = f"{path.relative_to(root)}:{line}"
            if default is not None:
                defaulted[label] = where
            if qual in replaced_all or name in replaced or name in facts["assigned"]:
                continue
            passed = [_argument(call, name, order.index(name), 0) for call in calls]
            none, one = _judge(passed, default)
            if none:
                unset[label] = where
            elif one is not None:
                literal[label] = (where, one)
    return defaulted, unset, literal


def test_every_defaulted_field_is_set_outside_tests():
    _, unset, _ = field_scan()
    dead = sorted(f"{where} {label}" for label, where in unset.items() if label not in FIELD_ALLOWLIST)
    assert not dead, (
        "only tests set these fields; make each a constant, a field(init=False), "
        "or allowlist it with a reason:\n" + "\n".join(dead)
    )


def test_field_allowlist_is_current():
    defaulted, unset, _ = field_scan()
    gone = sorted(label for label in FIELD_ALLOWLIST if label not in defaulted)
    live = sorted(
        f"{defaulted[label]} {label}"
        for label in FIELD_ALLOWLIST
        if label in defaulted and label not in unset
    )
    assert not gone, f"allowlisted but no longer a defaulted field: {gone}"
    assert not live, "allowlisted but now set outside tests; drop the entry:\n" + "\n".join(live)


def test_field_allowlist_entries_have_reasons():
    assert len(FIELD_ALLOWLIST) <= 1
    assert all(reason.strip() for reason in FIELD_ALLOWLIST.values())


def _literals() -> dict[str, tuple[str, str]]:
    return {**scan()[2], **field_scan()[2]}


def test_no_parameter_or_field_is_always_one_literal():
    fixed = sorted(
        f"{where} {label} is always {value}"
        for label, (where, value) in _literals().items()
        if label not in LITERAL_ALLOWLIST
    )
    assert not fixed, (
        "every caller outside tests passes these the same literal; make each a "
        "constant or allowlist it with a reason:\n" + "\n".join(fixed)
    )


def test_literal_allowlist_is_current():
    stale = sorted(label for label in LITERAL_ALLOWLIST if label not in _literals())
    assert not stale, f"allowlisted but no longer one literal in every call; drop it: {stale}"


def test_literal_allowlist_entries_have_reasons():
    assert len(LITERAL_ALLOWLIST) <= 3
    assert all(reason.strip() for reason in LITERAL_ALLOWLIST.values())
