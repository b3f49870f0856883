"""Bench E-X2: ablations of the bucketing design choices."""

from repro.experiments import ablation


def test_significance_ablation(benchmark, bench_config):
    rows = benchmark.pedantic(
        ablation.run_significance_ablation,
        args=(bench_config,),
        kwargs={"workflow": "trimodal"},
        rounds=1,
        iterations=1,
    )
    by_variant = {r.variant: r for r in rows}
    paper = next(v for k, v in by_variant.items() if "paper" in k)
    ablated = next(v for k, v in by_variant.items() if "ablated" in k)
    # Recency weighting exists for phasing workloads; on the moving
    # trimodal stream dropping it must not help.
    assert paper.awe_memory >= ablated.awe_memory - 0.05
    print()
    print(ablation.render(ablation.AblationResult(rows=rows)))


def test_exploration_budget_ablation(benchmark, bench_config):
    rows = benchmark.pedantic(
        ablation.run_exploration_ablation,
        args=(bench_config,),
        kwargs={"budgets": (3, 10, 30)},
        rounds=1,
        iterations=1,
    )
    assert len(rows) == 3
    assert all(0 < r.awe_memory <= 1 for r in rows)
    print()
    print(ablation.render(ablation.AblationResult(rows=rows)))


def test_bucket_cap_ablation(benchmark, bench_config):
    rows = benchmark.pedantic(
        ablation.run_bucket_cap_ablation,
        args=(bench_config,),
        kwargs={"caps": (1, 2, 10)},
        rounds=1,
        iterations=1,
    )
    by_cap = {r.variant.split(" ")[0]: r for r in rows}
    # On the bimodal workload a single bucket cannot model the two
    # modes: allowing >= 2 buckets must not hurt.
    assert by_cap["max_buckets=10"].awe_memory >= by_cap["max_buckets=1"].awe_memory - 0.05
    print()
    print(ablation.render(ablation.AblationResult(rows=rows)))


def test_capacity_ablation(benchmark, bench_config):
    capacities = (30, 100, bench_config.n_tasks)
    rows = benchmark.pedantic(
        ablation.run_capacity_ablation,
        args=(bench_config,),
        kwargs={"capacities": capacities},
        rounds=1,
        iterations=1,
    )
    assert [r.variant for r in rows] == ["unbounded (paper)"] + [
        f"cap={c}" for c in capacities
    ]
    reference, *binding, never_binds = rows
    assert reference.awe_delta is None
    # A bound the stream never reaches changes nothing, to the bit.
    assert never_binds.awe_delta == 0.0
    assert never_binds.attempts == reference.attempts
    for row in binding:
        assert 0 < row.awe_memory <= 1
        assert abs(row.awe_delta) <= 0.1
    print()
    print(ablation.render(ablation.AblationResult(rows=rows)))
