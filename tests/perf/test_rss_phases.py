"""``rss_phases.py``: bad inputs are usage errors, and faults are per phase."""

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
