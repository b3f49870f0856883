#!/usr/bin/env python
"""End-to-end kill-and-resume smoke test of the experiment CLI.

The acceptance criterion of the checkpoint subsystem, exercised on real
processes:

1. run ``repro-experiments figure5 --out ref.txt`` to completion — the
   reference output;
2. launch the same experiment with ``--checkpoint-dir``, SIGTERM it as
   soon as at least one grid cell is journaled (mid-run, arbitrary
   point), and require exit code 143 with **no** ``--out`` file
   published and nothing but the journal in the checkpoint directory;
3. relaunch with ``--resume`` and require byte-identical output to the
   reference.

``--jobs N`` is passed through to every run, so the same check covers
the serial grid (``--jobs 1``) and the process-pool grid (``--jobs 2``).
Exits 0 on success, 1 with a diagnostic on any violation.  Used by the
``resume-smoke`` CI lane; run locally with::

    python scripts/kill_resume_smoke.py [--keep] [--tasks N] [--jobs N]
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cli_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _cli(args: list) -> list:
    return [sys.executable, "-m", "repro.cli", "figure5", *args]


def _experiment_args(tasks: int, jobs: int) -> list:
    return [
        "--tasks", str(tasks), "--workers", "4", "--ramp-up", "60", "--jobs", str(jobs),
    ]


def fail(message: str) -> "NoReturn":  # noqa: F821 - py3.9 compatibility
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tasks", type=int, default=60, help="grid size knob")
    parser.add_argument(
        "--jobs", type=int, default=1, help="grid worker processes (default 1: serial)"
    )
    parser.add_argument(
        "--keep", action="store_true", help="keep the scratch directory"
    )
    args = parser.parse_args()

    scratch = tempfile.mkdtemp(prefix="kill-resume-smoke-")
    ref_path = os.path.join(scratch, "reference.txt")
    out_path = os.path.join(scratch, "resumed.txt")
    ckpt_dir = os.path.join(scratch, "ckpt")
    journal = os.path.join(ckpt_dir, "figure5", "journal.jsonl")
    env = _cli_env()
    try:
        # Step 1: the uninterrupted reference.
        print("[smoke] reference run ...")
        proc = subprocess.run(
            _cli([*_experiment_args(args.tasks, args.jobs), "--out", ref_path]),
            env=env,
            cwd=scratch,
            capture_output=True,
        )
        if proc.returncode != 0:
            fail(f"reference run exited {proc.returncode}: {proc.stderr.decode()[-500:]}")
        reference = open(ref_path, "rb").read()

        # Step 2: launch, SIGTERM once the journal shows real progress.
        print("[smoke] interrupted run ...")
        victim = subprocess.Popen(
            _cli(
                [
                    *_experiment_args(args.tasks, args.jobs),
                    "--checkpoint-dir",
                    ckpt_dir,
                    "--out",
                    out_path,
                ]
            ),
            env=env,
            cwd=scratch,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline and victim.poll() is None:
            try:
                with open(journal, "rb") as handle:
                    journaled_cells = handle.read().count(b"\n") - 1
            except FileNotFoundError:
                journaled_cells = -1
            if journaled_cells >= 1:
                break
            time.sleep(0.05)
        if victim.poll() is not None:
            fail("run finished before a cell could be journaled; raise --tasks")
        victim.send_signal(signal.SIGTERM)
        stderr = victim.communicate(timeout=60)[1].decode()
        if victim.returncode != 143:
            fail(f"interrupted run exited {victim.returncode}, expected 143 (128+SIGTERM)")
        if "--resume" not in stderr:
            fail(f"interrupt message lacks the resume hint: {stderr[-300:]}")
        if os.path.exists(out_path):
            fail("interrupted run published its --out file; partial results leaked")
        left = sorted(os.listdir(os.path.dirname(journal)))
        if left != ["journal.jsonl"]:
            fail(f"checkpoint directory holds {left}, expected only the journal")
        print(f"[smoke] killed mid-run (>= {journaled_cells} cells journaled), rc=143")

        # Step 3: resume and byte-compare.
        print("[smoke] resumed run ...")
        proc = subprocess.run(
            _cli(
                [
                    *_experiment_args(args.tasks, args.jobs),
                    "--checkpoint-dir",
                    ckpt_dir,
                    "--resume",
                    "--out",
                    out_path,
                ]
            ),
            env=env,
            cwd=scratch,
            capture_output=True,
        )
        if proc.returncode != 0:
            fail(f"resumed run exited {proc.returncode}: {proc.stderr.decode()[-500:]}")
        resumed = open(out_path, "rb").read()
        if resumed != reference:
            fail(
                "resumed output differs from the uninterrupted reference "
                f"({len(resumed)} vs {len(reference)} bytes) — resume is not "
                "bit-identical"
            )
        print(f"[smoke] OK: resumed output is byte-identical ({len(reference)} bytes)")
        return 0
    finally:
        if args.keep:
            print(f"[smoke] scratch kept at {scratch}")
        else:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
