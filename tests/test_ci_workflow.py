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


def test_ci_job_names_are_unique():
    names = job_names(WORKFLOW.read_text())
    assert "unit-tests" in names and "end-to-end-bench" in names
    assert [name for name, count in Counter(names).items() if count > 1] == []

