"""Crash-safe grid runs: journaled cells, interrupt, bit-identical resume.

The grid-level acceptance property: ``run_grid`` interrupted at an
arbitrary point (between cells *or* mid-cell, serial or parallel) and
relaunched with ``resume=True`` on the same checkpoint directory yields
exactly the cells an uninterrupted run produces — compared on full
result state, excluding only the non-reproducible
``wall_clock_seconds``.  The cell is the only unit of durability: an
interrupted cell leaves nothing behind and reruns on resume.
"""

import dataclasses
import json
import os

import pytest

from repro.checkpoint import (
    CheckpointError,
    GracefulShutdown,
    GridInterrupted,
    decode_frame,
    state_digest,
)
from repro.experiments.config import PAPER_ALGORITHMS, PAPER_WORKFLOWS, ExperimentConfig
from repro.experiments.runner import grid_digest, run_cell, run_grid
from repro.faultfs import flip_bit
from repro.sim.manager import SimulationResult

WORKFLOWS = ("bimodal", "uniform")
ALGORITHMS = ("max_seen", "quantized_bucketing")


def _config(**overrides):
    return ExperimentConfig(
        n_tasks=120, n_workers=6, ramp_up_seconds=60.0, **overrides
    )


def _comparable(result):
    """Result state minus the one field that legitimately varies."""
    state = result.state_dict()
    state.pop("wall_clock_seconds")
    return state


def _assert_same_cells(resumed, reference):
    assert set(resumed.cells) == set(reference.cells)
    for key in reference.cells:
        assert _comparable(resumed.cells[key]) == _comparable(reference.cells[key]), key


class TripAfter(GracefulShutdown):
    """A shutdown whose flag trips after N polls — deterministic interrupts.

    The serial grid polls ``triggered`` after every engine event and
    before every cell, the parallel grid once per collected cell, so
    ``after`` dials the interrupt point anywhere from mid-first-cell to
    between-last-cells.
    """

    def __init__(self, after: int) -> None:
        self._after = after
        self._polls = 0
        super().__init__(install=False)
        self.signum = 15

    @property
    def triggered(self) -> bool:
        self._polls += 1
        return self._polls > self._after

    @triggered.setter
    def triggered(self, value) -> None:  # base __init__ assigns False
        pass


@pytest.fixture(scope="module")
def reference():
    """The uninterrupted grid every resume test compares against."""
    return run_grid(WORKFLOWS, ALGORITHMS, config=_config())


def test_simulation_result_state_round_trip():
    result = run_cell("bimodal", "quantized_bucketing", config=_config())
    state = json.loads(json.dumps(result.state_dict()))  # via-disk round trip
    restored = SimulationResult.from_state(state)
    assert state_digest(restored.state_dict()) == state_digest(state)
    assert restored.summary() == result.summary()


def test_completed_cells_are_journaled(tmp_path, reference):
    checkpoint_dir = str(tmp_path / "ckpt")
    result = run_grid(
        WORKFLOWS, ALGORITHMS, config=_config(checkpoint_dir=checkpoint_dir)
    )
    _assert_same_cells(result, reference)
    lines = (tmp_path / "ckpt" / "journal.jsonl").read_text().splitlines()
    header = decode_frame(lines[0])  # CRC-covered like every other record
    assert header["kind"] == "grid-journal"
    assert header["digest"] == grid_digest(WORKFLOWS, ALGORITHMS, _config())
    assert len(lines) == 1 + len(WORKFLOWS) * len(ALGORITHMS)
    assert os.listdir(checkpoint_dir) == ["journal.jsonl"]


def test_grid_digest_matches_older_builds():
    """The digest still carries the ``"faults": "None"`` entry that builds
    with fault injection wrote for a fault-free grid, so their journals
    stay resumable (a faulted journal's digest differs and is refused)."""
    assert grid_digest(PAPER_WORKFLOWS, PAPER_ALGORITHMS, ExperimentConfig()) == (
        "43ef795e331997fc086856bf82ca054cc2ba7d6e5947fb9eec1032c7d49c1c35"
    )
    small = ExperimentConfig(n_tasks=80, n_workers=6)
    assert grid_digest(PAPER_WORKFLOWS, PAPER_ALGORITHMS, small) == (
        "2e7253d7e922144ee39b49d80c1cc685f9b46594ebc7766fcd744dc5dbcaa691"
    )


def _journaled_cells(checkpoint_dir):
    with open(os.path.join(checkpoint_dir, "journal.jsonl"), encoding="utf-8") as handle:
        return handle.read().splitlines()[1:]


@pytest.mark.parametrize(
    "jobs,after,mid_first_cell",
    [
        pytest.param(1, 25, True, id="serial-mid-first-cell"),
        pytest.param(1, 500, False, id="serial-mid-grid"),  # of ~960 polls
        pytest.param(2, 0, True, id="parallel-mid-first-cell"),
        pytest.param(2, 2, False, id="parallel-mid-grid"),
    ],
)
def test_interrupt_and_resume_is_bit_identical(
    jobs, after, mid_first_cell, tmp_path, reference
):
    """An interrupt drops the running cells; resume reruns exactly those."""
    checkpoint_dir = str(tmp_path / "ckpt")
    with pytest.raises(GridInterrupted) as excinfo:
        run_grid(
            WORKFLOWS,
            ALGORITHMS,
            config=_config(checkpoint_dir=checkpoint_dir),
            jobs=jobs,
            shutdown=TripAfter(after),
        )
    assert excinfo.value.signum == 15
    journaled = _journaled_cells(checkpoint_dir)
    assert len(journaled) == excinfo.value.completed
    if mid_first_cell:
        assert journaled == []
    else:
        assert 0 < len(journaled) < len(WORKFLOWS) * len(ALGORITHMS)
    assert os.listdir(checkpoint_dir) == ["journal.jsonl"]

    resumed = run_grid(
        WORKFLOWS,
        ALGORITHMS,
        config=_config(checkpoint_dir=checkpoint_dir, resume=True),
        jobs=jobs,
    )
    _assert_same_cells(resumed, reference)
    assert os.listdir(checkpoint_dir) == ["journal.jsonl"]


def test_inflight_snapshot_of_an_older_build_is_ignored(tmp_path, reference):
    """Older builds also left an in-cell snapshot beside the journal; this
    build never reads it, and the cell it belonged to reruns."""
    checkpoint_dir = str(tmp_path / "ckpt")
    with pytest.raises(GridInterrupted):
        run_grid(
            WORKFLOWS,
            ALGORITHMS,
            config=_config(checkpoint_dir=checkpoint_dir),
            shutdown=TripAfter(500),
        )
    stale = tmp_path / "ckpt" / "inflight.json"
    stale.write_text('{"magic": "repro-checkpoint", "version": 1, "kind": "simulation"}')
    resumed = run_grid(
        WORKFLOWS,
        ALGORITHMS,
        config=_config(checkpoint_dir=checkpoint_dir, resume=True),
    )
    _assert_same_cells(resumed, reference)


def test_resume_skips_journaled_cells(tmp_path, monkeypatch, reference):
    """A fully journaled grid resumes without running a single simulation."""
    checkpoint_dir = str(tmp_path / "ckpt")
    run_grid(WORKFLOWS, ALGORITHMS, config=_config(checkpoint_dir=checkpoint_dir))

    import repro.experiments.runner as runner_module

    def explode(*args, **kwargs):  # pragma: no cover - must never run
        raise AssertionError("resume recomputed a journaled cell")

    monkeypatch.setattr(runner_module, "_simulation_config", explode)
    resumed = run_grid(
        WORKFLOWS,
        ALGORITHMS,
        config=_config(checkpoint_dir=checkpoint_dir, resume=True),
    )
    _assert_same_cells(resumed, reference)


def test_parallel_path_journals_and_resumes(tmp_path, reference):
    """jobs>1: cell-granularity durability, same journal, same results."""
    checkpoint_dir = str(tmp_path / "ckpt")
    result = run_grid(
        WORKFLOWS,
        ALGORITHMS,
        config=_config(checkpoint_dir=checkpoint_dir),
        jobs=2,
    )
    _assert_same_cells(result, reference)

    # Drop the last journaled cell to fake an interrupt between cells;
    # the parallel resume must rerun exactly that one and re-converge.
    journal = tmp_path / "ckpt" / "journal.jsonl"
    lines = journal.read_text().splitlines(keepends=True)
    journal.write_text("".join(lines[:-1]))
    resumed = run_grid(
        WORKFLOWS,
        ALGORITHMS,
        config=_config(checkpoint_dir=checkpoint_dir, resume=True),
        jobs=2,
    )
    _assert_same_cells(resumed, reference)


def test_resume_refuses_different_experiment(tmp_path):
    checkpoint_dir = str(tmp_path / "ckpt")
    run_grid(WORKFLOWS, ALGORITHMS, config=_config(checkpoint_dir=checkpoint_dir))
    other = dataclasses.replace(
        _config(), n_tasks=60, checkpoint_dir=checkpoint_dir, resume=True
    )
    with pytest.raises(CheckpointError, match="different experiment"):
        run_grid(WORKFLOWS, ALGORITHMS, config=other)


def test_resume_refuses_bit_flipped_header(tmp_path):
    """One flipped bit in the header must not resume under another digest."""
    checkpoint_dir = str(tmp_path / "ckpt")
    run_grid(WORKFLOWS, ALGORITHMS, config=_config(checkpoint_dir=checkpoint_dir))
    journal = tmp_path / "ckpt" / "journal.jsonl"
    header_len = len(journal.read_bytes().split(b"\n")[0])
    resume = _config(checkpoint_dir=checkpoint_dir, resume=True)
    for byte_offset in (header_len - 2, header_len // 2, 5):  # digest, payload, length field
        flip_bit(str(journal), byte_offset=byte_offset)
        with pytest.raises(CheckpointError, match="not a grid journal"):
            run_grid(WORKFLOWS, ALGORITHMS, config=resume)
        # Zero rows kept: the damaged file is evidence, not input.
        assert not journal.exists()
        quarantined = sorted((tmp_path / "ckpt" / "journal.jsonl.corrupt").iterdir())
        os.replace(quarantined[-1], journal)
        flip_bit(str(journal), byte_offset=byte_offset)  # undo


def test_resume_requires_checkpoint_dir():
    with pytest.raises(CheckpointError, match="requires checkpoint_dir"):
        run_grid(WORKFLOWS, ALGORITHMS, config=_config(resume=True))


def test_resume_with_empty_directory_is_fresh_start(tmp_path, reference):
    """resume=True with no journal yet must behave as a fresh run.

    This is what ``repro all --resume`` hits for every target the
    interrupted run never reached.
    """
    checkpoint_dir = str(tmp_path / "never-started")
    result = run_grid(
        WORKFLOWS,
        ALGORITHMS,
        config=_config(checkpoint_dir=checkpoint_dir, resume=True),
    )
    _assert_same_cells(result, reference)
    assert os.path.exists(os.path.join(checkpoint_dir, "journal.jsonl"))
