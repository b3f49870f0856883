"""Shared fixtures for the analysis tests."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def run_cli():
    """Run ``python -m repro.analysis ARGS`` from ``cwd`` against this checkout."""

    def run(args, cwd):
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", *args],
            capture_output=True,
            text=True,
            cwd=cwd,
            env={
                "PYTHONPATH": str(REPO_ROOT / "src"),
                "PATH": "/usr/bin:/bin",
                "PYTHONHASHSEED": "0",
            },
        )

    return run
