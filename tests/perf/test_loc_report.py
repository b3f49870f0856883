"""scripts/loc_report.py: the line-count history line it appends."""

import importlib.util
import json
from pathlib import Path

import pytest

pytestmark = pytest.mark.perf

_SPEC = importlib.util.spec_from_file_location(
    "loc_report",
    Path(__file__).resolve().parents[2] / "scripts" / "loc_report.py",
)
loc_report = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(loc_report)


def test_append_history_writes_one_loc_line_per_run(tmp_path, capsys):
    checkout = tmp_path / "checkout"
    (checkout / "src" / "repro" / "core").mkdir(parents=True)
    (checkout / "tests" / "core").mkdir(parents=True)
    (checkout / "src" / "repro" / "core" / "a.py").write_text("x = 1\ny = 2\n")
    (checkout / "src" / "repro" / "cli.py").write_text("z = 3\n")
    (checkout / "tests" / "core" / "test_a.py").write_text("def test_a():\n    pass\n\n")
    history = tmp_path / "history.jsonl"
    history.write_text('{"commit":"abc","results":{}}\n')  # a benchmark run's line

    for _ in range(2):
        assert loc_report.main(["--root", str(checkout), "--append-history", str(history)]) == 0
    assert "core" in capsys.readouterr().out  # the table is still printed

    lines = [json.loads(line) for line in history.read_text().splitlines()]
    assert len(lines) == 3 and "kind" not in lines[0]
    assert lines[1] == lines[2]
    assert lines[1]["kind"] == "loc"
    assert "commit" in lines[1]  # None outside a git checkout
    assert lines[1]["src"] == {"(top level)": 1, "core": 2, "total": 3}
    assert lines[1]["tests"] == {"(top level)": 0, "core": 3, "total": 3}
