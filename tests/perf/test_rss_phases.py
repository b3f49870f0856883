"""``rss_phases.py``: bad inputs are usage errors, and faults are per phase."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.perf

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "rss_phases.py"


def run_script(*args):
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--workload", "sim-topeft", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "args",
    [("--seconds", "nan"), ("--seconds", "inf"), ("--seconds", "0"), ("--seed", "-1")],
    ids=["nan-seconds", "inf-seconds", "zero-seconds", "negative-seed"],
)
def test_bad_input_is_a_usage_error(args):
    done = run_script(*args)
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert "error:" in done.stderr


def test_each_phase_reports_its_minor_faults():
    done = run_script("--quick")
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    faults = report["minor_faults"]
    assert set(faults) == {"set-up", "timed", "after"}
    assert all(isinstance(count, int) and count >= 0 for count in faults.values())
    # Imports and input generation touch fresh memory.
    assert faults["set-up"] > 0
    assert "minor_faults" in done.stdout.splitlines()[1]
    # Timed-phase faults per op, and the slow-mode flag they imply.
    per_op = report["timed_faults_per_op"]
    assert report["timed_ops"] > 0
    assert per_op == round(faults["timed"] / report["timed_ops"], 4)
    assert report["likely_slow_mode"] == (per_op > 1.0)
    assert ("LIKELY PYMALLOC SLOW MODE" in done.stdout) == report["likely_slow_mode"]
    assert "timed-phase minor faults per op:" in done.stdout


def test_slow_mode_flag_sits_between_the_recorded_modes():
    """docs/PERFORMANCE.md: ~0.18 faults per op fast, ~4.1 slow."""
    spec = importlib.util.spec_from_file_location("rss_phases", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.SLOW_MODE_FAULTS_PER_OP == 1.0
    assert not module.likely_slow_mode(0.18)
    assert not module.likely_slow_mode(1.0)
    assert module.likely_slow_mode(1.01)
    assert module.likely_slow_mode(4.1)
