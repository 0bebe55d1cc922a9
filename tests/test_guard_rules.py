"""The reach rules of the two AST guards, on small synthetic source trees.

``test_no_dead_surface.py`` and ``test_no_dead_knobs.py`` scan this repo; the
cases here run the same scans over a throwaway ``src/`` and ``examples/`` so
each rule is pinned by a source that exercises it and nothing else.
"""

from __future__ import annotations

import textwrap

import pytest

import test_no_dead_knobs as knobs
import test_no_dead_surface as surface


@pytest.fixture()
def repo(tmp_path):
    """Write ``src/pkg/mod.py`` and ``examples/use.py``; return the root."""

    def write(src: str, caller: str = ""):
        for relative, text in (("src/pkg/mod.py", src), ("examples/use.py", caller)):
            path = tmp_path / relative
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(text))
        return tmp_path

    return write


def unreached(root) -> set[str]:
    return surface.scan(root)[1]


def literals(root) -> dict[str, str]:
    found = {**knobs.scan(root)[2], **knobs.field_scan(root)[2]}
    return {label: value for label, (_, value) in found.items()}


# -- members are reached by attribute ---------------------------------------------------


def test_a_same_named_local_does_not_reach_a_member(repo):
    root = repo(
        """
        class Plan:
            def bucket_costs(self):
                return []

        def balance(plan):
            bucket_costs = [1, 2]
            return bucket_costs
        """,
        "from pkg.mod import Plan, balance\nbalance(Plan())\n",
    )
    assert unreached(root) == {"Plan.bucket_costs"}


def test_a_sibling_self_call_reaches_a_member_but_the_builtin_does_not(repo):
    source = """
        class Ids:
            def next(self):
                return next(self.counter)

            def next_name(self):
                return f"id-{self.next()}"

        def first(items):
            return next(iter(items))
        """
    caller = "from pkg.mod import Ids, first\nfirst([Ids().next_name()])\n"
    assert unreached(repo(source, caller)) == set()


def test_the_builtin_alone_does_not_reach_a_member(repo):
    root = repo(
        """
        class Ids:
            def next(self):
                return next(self.counter)

        def first(items):
            return next(iter(items))
        """,
        "from pkg.mod import Ids, first\nfirst([Ids()])\n",
    )
    assert unreached(root) == {"Ids.next"}


def test_importing_a_function_does_not_reach_a_same_named_method(repo):
    root = repo(
        """
        class Result:
            def imbalance_ratio(self):
                return 1.0

        def imbalance_ratio(matrix):
            return 1.0
        """,
        "from pkg.mod import Result, imbalance_ratio\nimbalance_ratio(Result())\n",
    )
    assert unreached(root) == {"Result.imbalance_ratio"}


def test_a_bare_name_in_its_own_class_body_or_a_string_reaches_a_member(repo):
    root = repo(
        """
        class Visitor:
            def visit_function(self, node):
                return node

            visit_async_function = visit_function

            def poll(self):
                return 0
        """,
        'from pkg.mod import Visitor\nv = Visitor()\nv.visit_async_function(1)\nv.call("poll")\n',
    )
    assert unreached(root) == set()


# -- parameters and fields every caller passes the same literal -------------------------


BROADCAST = """
    def broadcast_at(target_dim="TP"):
        return target_dim
    """


def test_a_parameter_every_caller_passes_as_one_literal_is_flagged(repo):
    calls = 'broadcast_at("TP")\nbroadcast_at("TP")\n'
    root = repo(BROADCAST, "from pkg.mod import broadcast_at\n" + calls)
    assert literals(root) == {"broadcast_at(target_dim=)": "'TP'"}


def test_a_call_relying_on_the_default_passes_the_default_literal(repo):
    root = repo(BROADCAST, 'from pkg.mod import broadcast_at\nbroadcast_at("TP")\nbroadcast_at()\n')
    assert literals(root) == {"broadcast_at(target_dim=)": "'TP'"}
    assert knobs.scan(root)[1] == {}


@pytest.mark.parametrize(
    "calls",
    [
        'broadcast_at("TP")\nbroadcast_at("CP")\n',
        'broadcast_at("TP")\nbroadcast_at(axis)\n',
        "broadcast_at(*axes)\n",
        'broadcast_at(target_dim="CP")\nbroadcast_at()\n',
    ],
    ids=["two-literals", "a-variable", "a-splat", "keyword-vs-default"],
)
def test_two_values_a_variable_or_a_splat_keep_the_parameter(repo, calls):
    root = repo(BROADCAST, "from pkg.mod import broadcast_at\n" + calls)
    assert literals(root) == {}


def test_a_required_parameter_passed_one_literal_is_flagged(repo):
    root = repo(
        """
        def shard(rows, dp_index):
            return rows, dp_index
        """,
        "from pkg.mod import shard\nshard([1], 0)\nshard(rows=[2], dp_index=0)\n",
    )
    assert literals(root) == {"shard(dp_index=)": "0"}


def test_a_dataclass_field_every_constructor_sets_to_one_literal_is_flagged(repo):
    root = repo(
        """
        from dataclasses import dataclass

        @dataclass
        class Spec:
            pp: int = 1
            dp: int = 2
        """,
        "from pkg.mod import Spec\nSpec(dp=4)\nSpec(1, 8)\n",
    )
    assert literals(root) == {"Spec.pp": "1"}
