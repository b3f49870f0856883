"""Tests for the Table I timing harness and the extension studies."""

import pytest

from repro.experiments import ablation, scaling, table1
from repro.experiments.config import ExperimentConfig

SMALL = ExperimentConfig(n_tasks=100, n_workers=4, ramp_up_seconds=60.0)


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self):
        return table1.run(record_counts=(10, 100, 400), repeats=1, include_literal=True)

    def test_rows_present(self, result):
        assert set(result.microseconds) == {
            "greedy_bucketing",
            "exhaustive_bucketing",
            "greedy_bucketing_literal",
            "exhaustive_bucketing_literal",
        }
        assert all(len(v) == 3 for v in result.microseconds.values())

    def test_timings_positive(self, result):
        for series in result.microseconds.values():
            assert all(t > 0 for t in series)

    def test_literal_gb_grows_superlinearly(self, result):
        lit = result.microseconds["greedy_bucketing_literal"]
        # 40x records -> much more than 40x time (paper's GB blowup).
        assert lit[-1] / lit[0] > 40

    def test_literal_gb_slower_than_eb_at_scale(self, result):
        lit = result.microseconds["greedy_bucketing_literal"][-1]
        assert lit > result.microseconds["exhaustive_bucketing_literal"][-1]
        assert lit > result.microseconds["exhaustive_bucketing"][-1]

    def test_render(self, result):
        text = table1.render(result)
        assert "Table I" in text
        assert "EB" in text and "literal" in text

    def test_allocator_rows_time_the_allocator_not_the_references(self, monkeypatch):
        """Table I measures the product: the allocator rows run the
        registered algorithms' own engines, the literal rows the
        paper-literal searches."""
        from repro.core import exhaustive, greedy

        assert table1._LITERAL_SEARCHES == {
            "greedy_bucketing_literal": greedy.greedy_break_indices_literal,
            "exhaustive_bucketing_literal": exhaustive.exhaustive_break_indices,
        }
        entered = []

        def forbid(owner, name, setter=monkeypatch.setattr):
            def search(*args, **kwargs):
                entered.append(name)
                raise AssertionError(f"entered {name}")

            setter(owner, name, search)

        forbid(exhaustive, "exhaustive_break_indices")
        forbid(exhaustive, "evenly_spaced_break_indices")
        forbid(greedy, "greedy_break_indices")
        forbid(greedy, "greedy_break_indices_literal")
        for row in list(table1._LITERAL_SEARCHES):
            forbid(table1._LITERAL_SEARCHES, row, monkeypatch.setitem)

        records = table1._make_records(60, seed=1)
        for algorithm in ("greedy_bucketing", "exhaustive_bucketing"):
            assert table1.time_algorithm(algorithm, records, repeats=2) > 0
        assert entered == []
        assert len(records) == 60  # the caller's list is read, not grown
        for row in table1._LITERAL_SEARCHES:
            with pytest.raises(AssertionError, match=f"entered {row}"):
                table1.time_algorithm(row, records, repeats=1)
        assert entered == list(table1._LITERAL_SEARCHES)

    def test_unknown_algorithm_rejected(self):
        from repro.core.records import RecordList

        rl = RecordList()
        rl.add(1.0)
        with pytest.raises(KeyError):
            table1.time_algorithm("max_seen", rl)


class TestScaling:
    def test_scaling_rows(self):
        result = scaling.run(
            workflow="normal",
            algorithm="exhaustive_bucketing",
            task_counts=(60, 150),
            config=SMALL,
        )
        assert result.task_counts == (60, 150)
        assert len(result.overall_awe) == 2
        assert all(0 < v <= 1 for v in result.overall_awe)
        assert all(0 < v <= 1.000001 for v in result.steady_awe)
        text = scaling.render(result)
        assert "E-X1" in text


class TestAblation:
    def test_exploration_sweep(self):
        rows = ablation.run_exploration_ablation(SMALL, budgets=(3, 10))
        assert len(rows) == 2
        assert all(0 < r.awe_memory <= 1 for r in rows)
        assert any("paper" in r.variant for r in rows)

    def test_bucket_cap_sweep(self):
        rows = ablation.run_bucket_cap_ablation(SMALL, caps=(1, 10))
        assert len(rows) == 2
        assert {r.variant.split(" ")[0] for r in rows} == {
            "max_buckets=1",
            "max_buckets=10",
        }

    def test_significance_ablation_variants(self):
        rows = ablation.run_significance_ablation(
            SMALL, workflow="trimodal", policies=("task_id", "uniform")
        )
        assert len(rows) == 2
        variants = {r.variant for r in rows}
        assert any("paper" in v for v in variants)
        assert any("ablated" in v for v in variants)
        assert all(0 < r.awe_memory <= 1 for r in rows)

    def test_render(self):
        result = ablation.AblationResult(
            rows=ablation.run_exploration_ablation(SMALL, budgets=(10,))
        )
        assert "exploration" in ablation.render(result)
