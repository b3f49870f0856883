"""Tests for the experiment config and grid runner (small scale)."""

import pytest

from repro.core.resources import MEMORY
from repro.experiments.config import (
    PAPER_ALGORITHMS,
    PAPER_WORKFLOWS,
    ExperimentConfig,
    make_workflow,
)
from repro.experiments.runner import run_cell, run_grid


SMALL = ExperimentConfig(n_tasks=120, n_workers=4, ramp_up_seconds=60.0)


class TestConfig:
    def test_paper_lists(self):
        assert len(PAPER_ALGORITHMS) == 7
        assert len(PAPER_WORKFLOWS) == 7
        assert "exhaustive_bucketing" in PAPER_ALGORITHMS
        assert "colmena_xtb" in PAPER_WORKFLOWS and "topeft" in PAPER_WORKFLOWS

    def test_make_workflow_synthetic(self):
        wf = make_workflow("normal", n_tasks=50, seed=0)
        assert len(wf) == 50

    def test_make_workflow_production_scaled(self):
        wf = make_workflow("topeft", n_tasks=100, seed=0)
        # scale 0.1 applied to the published counts.
        assert 400 < len(wf) < 520

    def test_make_workflow_unknown(self):
        with pytest.raises(KeyError):
            make_workflow("nope")

    def test_simulation_config_wiring(self):
        cfg = SMALL.simulation_config("max_seen")
        assert cfg.allocator.algorithm == "max_seen"
        assert cfg.pool.n_workers == 4

    def test_with_override(self):
        assert SMALL.with_(n_tasks=7).n_tasks == 7

    @pytest.mark.parametrize("ramp_up", [-5.0, float("nan"), float("inf")])
    def test_bad_ramp_up_is_refused_at_construction(self, ramp_up):
        """The pool's own check runs when the config is built, not mid-run."""
        with pytest.raises(ValueError, match="ramp_up_seconds must be finite and >= 0"):
            ExperimentConfig(ramp_up_seconds=ramp_up)
        with pytest.raises(ValueError, match="ramp_up_seconds"):
            SMALL.with_(ramp_up_seconds=ramp_up)

    @pytest.mark.parametrize("bad", [0, -1, 2.5, True])
    def test_bad_max_outstanding_is_refused_at_construction(self, bad):
        """The simulator's own count check, not a copy, runs when the
        config is built, not when a cell builds its SimulationConfig."""
        with pytest.raises(ValueError, match="max_outstanding must be an integer >= 1"):
            ExperimentConfig(max_outstanding=bad)
        assert ExperimentConfig(max_outstanding=4).simulation_config("max_seen").max_outstanding == 4

    @pytest.mark.parametrize("field", ["workflow_seed", "allocator_seed", "pool_seed"])
    @pytest.mark.parametrize("bad", [-1, True, None, 1.5])
    def test_bad_seed_is_refused_at_construction(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be an integer >= 0"):
            ExperimentConfig(**{field: bad})


class TestRunner:
    def test_run_cell_by_name(self):
        result = run_cell("normal", "max_seen", SMALL)
        assert result.n_tasks == 120
        assert result.algorithm == "max_seen"

    def test_run_cell_allocator_overrides(self):
        from repro.core.allocator import ExploratoryConfig

        result = run_cell(
            "normal",
            "exhaustive_bucketing",
            SMALL,
            exploratory=ExploratoryConfig(min_records=5),
        )
        assert result.n_tasks == 120

    def test_run_grid_cells_and_accessors(self):
        grid = run_grid(
            workflows=("normal", "uniform"),
            algorithms=("whole_machine", "max_seen"),
            config=SMALL,
        )
        assert set(grid.cells) == {
            ("normal", "whole_machine"),
            ("normal", "max_seen"),
            ("uniform", "whole_machine"),
            ("uniform", "max_seen"),
        }
        assert 0 < grid.awe("normal", "max_seen", "memory") <= 1
        assert grid.best_algorithm("normal", "memory") in ("whole_machine", "max_seen")

    def test_grid_workflows_identical_across_algorithms(self):
        """Every algorithm must see the same task stream."""
        grid = run_grid(
            workflows=("normal",),
            algorithms=("whole_machine", "max_seen"),
            config=SMALL,
        )
        wm = grid.cells["normal", "whole_machine"]
        ms = grid.cells["normal", "max_seen"]
        assert wm.ledger.total_consumption(MEMORY) == pytest.approx(
            ms.ledger.total_consumption(MEMORY)
        )

    def test_max_seen_beats_whole_machine(self):
        grid = run_grid(
            workflows=("normal",),
            algorithms=("whole_machine", "max_seen"),
            config=SMALL,
        )
        assert grid.awe("normal", "max_seen", "memory") > grid.awe(
            "normal", "whole_machine", "memory"
        )
