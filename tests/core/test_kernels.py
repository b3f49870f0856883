"""The one partition scorer vs its table-building reference.

:mod:`repro.core.cost` keeps the paper-literal ``probs @ T @ probs``
contraction as the reference implementation; the fused scoring loop
of :func:`repro.core.exhaustive._score_and_select` — the only routine
that computes the expected waste ``W_B`` in production — must pick the
configuration that reference scores cheapest (to float tolerance: the
accumulation orders differ by design) at every width, and the stats it
hands over for the winner must be :func:`partition_stats` *bit for
bit* — a :class:`BucketState` adopts them unchecked.
"""

import numpy as np
import pytest

from repro.core.buckets import BucketState, partition_stats
from repro.core.cost import exhaustive_cost
from repro.core.exhaustive import _score_and_select, evenly_spaced_break_indices
from repro.core.records import RecordList

#: Bucket counts every scoring test covers: the paper's regime (<= 10),
#: the widest cap in the tree (20), and far past both.
WIDTHS = (1, 2, 3, 10, 20, 31, 32, 33, 64)


def make_records(n, seed=0):
    rng = np.random.default_rng(seed)
    rl = RecordList()
    for i, value in enumerate(rng.lognormal(mean=5.0, sigma=1.5, size=n)):
        rl.add(float(value), significance=float(i + 1), task_id=i)
    return rl


def random_partition(records, rng, k):
    """A random valid partition of ``records`` into ``k`` buckets."""
    n = len(records)
    interior = sorted(rng.choice(n - 1, size=k - 1, replace=False).tolist()) if k > 1 else []
    return [int(i) for i in interior] + [n - 1]


def random_partitions(records, rng, count=6):
    """Random valid partitions of ``records``, various widths."""
    widths = rng.integers(1, min(len(records), 12) + 1, size=count)
    return [random_partition(records, rng, int(k)) for k in widths]


def reference_cost(records, breaks):
    reps, probs, estimates = partition_stats(records, breaks)
    return exhaustive_cost(np.asarray(reps), np.asarray(probs), np.asarray(estimates))


# -- the scoring loop vs the cost-table reference -----------------------------


@pytest.mark.parametrize("seed", range(5))
def test_scalar_kernel_matches_exhaustive_cost(seed):
    """The winner is the reference's argmin, at widths 1 to 64."""
    records = make_records(200, seed=seed)
    rng = np.random.default_rng(100 + seed)
    # Mixed widths, as the search passes them, then one width at a time
    # (closer costs; K >= 32 runs through the same loop as K <= 10).
    mixed = list(WIDTHS) + rng.integers(1, 65, size=6).tolist()
    clear_winners = 0
    for widths in [mixed] + [[k] * 8 for k in WIDTHS[1:]]:
        configs = [random_partition(records, rng, int(k)) for k in widths]
        costs = [reference_cost(records, breaks) for breaks in configs]
        chosen = _score_and_select(records, configs)[0]
        best, runner_up = sorted(costs)[:2]
        if runner_up - best > 1e-9 * abs(best):
            assert chosen is configs[costs.index(best)]
            clear_winners += 1
        else:  # a near-tie may go either way in the last bits
            assert reference_cost(records, chosen) == pytest.approx(best, rel=1e-9)
    assert clear_winners


def test_single_bucket_waste_is_rep_minus_estimate():
    records = make_records(25, seed=9)
    single = [len(records) - 1]
    reps, probs, estimates = partition_stats(records, single)
    assert probs == [1.0]
    assert reference_cost(records, single) == pytest.approx(reps[0] - estimates[0])
    assert _score_and_select(records, [single])[0] is single


# -- the winner's stats, bit for bit ------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_want_stats_winner_equals_partition_stats(seed):
    records = make_records(120, seed=seed)
    rng = np.random.default_rng(500 + seed)
    configs = [random_partition(records, rng, k) for k in WIDTHS]
    breaks, stats = _score_and_select(records, configs)
    assert any(breaks is config for config in configs)
    assert stats == partition_stats(records, breaks)  # exact, not approx


# -- partition_stats vs BucketState: bit identity -----------------------------


@pytest.mark.parametrize("seed", range(4))
def test_partition_stats_bit_identical_to_bucket_state(seed):
    records = make_records(60, seed=seed)
    rng = np.random.default_rng(300 + seed)
    for breaks in random_partitions(records, rng):
        reps, probs, estimates = partition_stats(records, breaks)
        state = BucketState(records, breaks)
        assert reps == state.reps.tolist()  # exact, not approx
        assert probs == state.probs.tolist()
        assert estimates == state.estimates.tolist()
        # ... and both are Section IV-A read off the record list's own
        # range accessors: max, significance share, weighted mean.
        lo = 0
        for bucket, hi in zip(state.buckets, breaks):
            assert bucket.rep == records.max_value(lo, hi)
            assert bucket.prob == records.sig_sum(lo, hi) / records.total_significance()
            assert bucket.estimate == min(records.weighted_mean(lo, hi), bucket.rep)
            lo = hi + 1


def test_adopted_stats_equal_derived_stats():
    """``stats=`` is adopted as given; without it the same numbers are derived."""
    records = make_records(50, seed=7)
    breaks = evenly_spaced_break_indices(records, 8)
    stats = partition_stats(records, breaks)
    adopted = BucketState(records, breaks, stats=stats)
    derived = BucketState(records, list(breaks))
    assert adopted.reps.tolist() == derived.reps.tolist()
    assert adopted.probs.tolist() == derived.probs.tolist()
    assert adopted.estimates.tolist() == derived.estimates.tolist()
    assert [b.hi for b in adopted.buckets] == [b.hi for b in derived.buckets]
    assert adopted.first_allocation(np.random.default_rng(1)) == derived.first_allocation(
        np.random.default_rng(1)
    )


def test_retired_trusted_keyword_rejected():
    records = make_records(5)
    with pytest.raises(TypeError):
        BucketState(records, [4], trusted=True)
