"""Where benchmark artifacts go: a plain run must not touch tracked files."""

from __future__ import annotations

import json

from . import conftest
from .conftest import write_bench_json


def test_tracked_artifact_is_written_only_under_bench_commit(tmp_path, monkeypatch):
    monkeypatch.setattr(conftest, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(conftest, "OUT_DIR", tmp_path / "out")
    committed = tmp_path / "BENCH_figX.json"
    committed.write_text('{"sweep": 1}\n')

    monkeypatch.delenv("BENCH_COMMIT", raising=False)
    path = write_bench_json("figX", "smoke", 2)
    assert path == tmp_path / "out" / "BENCH_figX.json"
    # Seeded from the committed artifact, so a gate finds both sections ...
    assert json.loads(path.read_text()) == {"sweep": 1, "smoke": 2}
    # ... and a second test of the same figure merges into the same file.
    write_bench_json("figX", "other", 3)
    assert json.loads(path.read_text()) == {"sweep": 1, "smoke": 2, "other": 3}
    assert committed.read_text() == '{"sweep": 1}\n'

    monkeypatch.setenv("BENCH_COMMIT", "1")
    assert write_bench_json("figX", "smoke", 4) == committed
    assert json.loads(committed.read_text()) == {"sweep": 1, "smoke": 4}


def test_a_session_starts_from_the_committed_artifact_not_a_stale_local_one(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(conftest, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(conftest, "OUT_DIR", tmp_path / "out")
    monkeypatch.setattr(conftest, "_WRITTEN", set())
    monkeypatch.delenv("BENCH_COMMIT", raising=False)
    (tmp_path / "BENCH_figX.json").write_text('{"sweep": 1}\n')
    stale = tmp_path / "out" / "BENCH_figX.json"
    stale.parent.mkdir()
    stale.write_text('{"sweep": 0, "smoke": 0, "gone": 0}\n')

    assert write_bench_json("figX", "smoke", 2) == stale
    assert json.loads(stale.read_text()) == {"sweep": 1, "smoke": 2}
    write_bench_json("figX", "other", 3)
    assert json.loads(stale.read_text()) == {"sweep": 1, "smoke": 2, "other": 3}
