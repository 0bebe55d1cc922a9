"""The CI workflow file must stay loadable: GitHub rejects a duplicate job key
(a lenient YAML loader silently keeps the last copy instead)."""

from __future__ import annotations

import re
from collections import Counter
from pathlib import Path

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "ci.yml"


def job_names(text: str) -> list[str]:
    """The two-space-indented mapping keys under the top-level ``jobs:``."""
    lines = text.splitlines()
    names = []
    for line in lines[lines.index("jobs:") + 1 :]:
        if line and not line[0].isspace() and not line.startswith("#"):
            break  # next top-level key
        match = re.fullmatch(r"  ([A-Za-z0-9_-]+):\s*(#.*)?", line)
        if match:
            names.append(match.group(1))
    return names


def job_runs(text: str, job: str) -> list[str]:
    """The ``run:`` commands of ``job``'s steps, in order (single-line form)."""
    lines = text.splitlines()
    start = lines.index(f"  {job}:") + 1
    runs = []
    for line in lines[start:]:
        if re.fullmatch(r"  [A-Za-z0-9_-]+:\s*(#.*)?", line) or (line and not line[0].isspace()):
            break  # next job or top-level key
        match = re.fullmatch(r"\s+(?:- )?run: (.+)", line)
        if match:
            runs.append(match.group(1))
    return runs


def test_ci_job_names_are_unique():
    names = job_names(WORKFLOW.read_text())
    assert "unit-tests" in names and "end-to-end-bench" in names
    assert [name for name, count in Counter(names).items() if count > 1] == []


def test_unit_tests_end_with_a_clean_tree_check():
    """Tier-1 must leave the checkout untouched; the last unit-tests step
    fails the job (and prints ``git status``) when it does not."""
    runs = job_runs(WORKFLOW.read_text(), "unit-tests")
    assert any("pytest tests" in run for run in runs[:-1])
    assert 'test -z "$(git status --porcelain)"' in runs[-1]
    assert "git status;" in runs[-1]

