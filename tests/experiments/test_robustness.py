"""Tests for the external-stochasticity robustness study (E-X4)."""

import pytest

from repro.experiments import robustness
from repro.experiments.config import ExperimentConfig

SMALL = ExperimentConfig(n_tasks=80, n_workers=4, ramp_up_seconds=30.0)


class TestSeedSweep:
    @pytest.fixture(scope="class")
    def result(self):
        return robustness.run_seed_sweep(
            SMALL,
            workflow="normal",
            algorithms=("max_seen", "exhaustive_bucketing"),
            seeds=(0, 1, 2),
        )

    def test_shape(self, result):
        assert result.seeds == (0, 1, 2)
        assert set(result.awe) == {"max_seen", "exhaustive_bucketing"}
        assert all(len(v) == 3 for v in result.awe.values())

    def test_statistics(self, result):
        for algorithm in result.algorithms:
            assert 0 < result.mean(algorithm) <= 1
            assert result.spread(algorithm) >= 0
            assert result.std(algorithm) <= result.spread(algorithm)

    def test_seeds_actually_vary_the_runs(self, result):
        """Different generation seeds must produce different AWE values
        (otherwise the sweep isn't sweeping)."""
        values = result.awe["exhaustive_bucketing"]
        assert len(set(round(v, 6) for v in values)) > 1

    def test_render(self, result):
        text = robustness.render_seed_sweep(result)
        assert "E-X4" in text
        assert "max_seen" in text
