"""``check_layer_counts.py --same``: two traced runs made the same decisions."""

import importlib.util
import json
from pathlib import Path

import pytest

pytestmark = pytest.mark.perf

_SPEC = importlib.util.spec_from_file_location(
    "check_layer_counts",
    Path(__file__).resolve().parents[2] / "scripts" / "check_layer_counts.py",
)
check_layer_counts = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_layer_counts)


def traced_file(path, **sim_overrides):
    """A synthetic all-workload traced run: table noise, then the JSON line."""

    def entries(values):
        return {name: {"value": value, "unit": "count"} for name, value in values.items()}

    sim = {
        "sim.events": 4951.0,
        "sim.awe_mean": 0.8569869229962376,
        "sim.find_fit_s": 0.21,  # a timing: free to differ
        "checkpoint.wal_bytes_per_op": 0.0,
    }
    sim.update(sim_overrides)
    wire = {"checkpoint.wal_bytes_per_op": 241.6856, "checkpoint.fsync_us_per_op": 31.0}
    doc = {
        "correct": True,
        "metrics": {"sim-topeft": entries(sim), "svc-wire-durable": entries(wire)},
    }
    path.write_text("sim.events   4951 count\n" + json.dumps(doc) + "\n")
    return str(path)


def test_same_passes_when_only_timings_differ(tmp_path, capsys):
    parent = traced_file(tmp_path / "parent.txt")
    change = traced_file(tmp_path / "change.txt", **{"sim.find_fit_s": 0.08})
    assert check_layer_counts.main(["--same", parent, change]) == 0
    assert "exact counts equal" in capsys.readouterr().out


def test_same_fails_and_names_the_moved_count(tmp_path, capsys):
    parent = traced_file(tmp_path / "parent.txt")
    change = traced_file(tmp_path / "change.txt", **{"sim.events": 4952.0})
    assert check_layer_counts.main(["--same", parent, change]) == 1
    assert "sim-topeft: sim.events moved: 4951.0 -> 4952.0" in capsys.readouterr().err


def test_same_fails_on_a_count_only_one_side_reports(tmp_path, capsys):
    parent = traced_file(tmp_path / "parent.txt")
    change = traced_file(tmp_path / "change.txt", **{"sim.awe_mean": None})
    assert check_layer_counts.main(["--same", parent, change]) == 1
    assert "sim.awe_mean moved: 0.8569869229962376 -> None" in capsys.readouterr().err


def test_same_needs_a_traced_line_on_both_sides(tmp_path, capsys):
    parent = traced_file(tmp_path / "parent.txt")
    empty = tmp_path / "empty.txt"
    empty.write_text("no json here\n")
    assert check_layer_counts.main(["--same", parent, str(empty)]) == 1
    assert check_layer_counts.main(["--same", parent]) == 1
