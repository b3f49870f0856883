"""The one partition scorer vs its table-building reference.

:mod:`repro.core.cost` keeps the paper-literal ``probs @ T @ probs``
contraction as the reference implementation; the fused scoring loop
behind :func:`repro.core.exhaustive.select_best_partition` — the only
routine that computes the expected waste ``W_B`` in production — must
pick the configuration that reference scores cheapest (to float
tolerance: the accumulation orders differ by design) at every width,
and :func:`partition_stats` must agree with :class:`BucketState` *bit
for bit* — the allocator swaps freely between the two.
"""

import numpy as np
import pytest

from repro.core.buckets import BucketState, partition_stats
from repro.core.cost import exhaustive_cost
from repro.core.exhaustive import (
    _score_and_select,
    evenly_spaced_break_indices,
    select_best_partition,
)
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
        chosen = select_best_partition(records, configs)
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
    assert select_best_partition(records, [single]) is single


# -- want_stats: the winner's stats, bit for bit ------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_want_stats_winner_equals_partition_stats(seed):
    records = make_records(120, seed=seed)
    rng = np.random.default_rng(500 + seed)
    configs = [random_partition(records, rng, k) for k in WIDTHS]
    breaks, stats = _score_and_select(records, configs, want_stats=True)
    assert breaks is select_best_partition(records, configs)
    assert stats == partition_stats(records, breaks)  # exact, not approx
    assert _score_and_select(records, configs)[1] is None


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


def test_trusted_bucket_state_equals_validated_state():
    """The hot-path trusted constructor adopts stats without changing them."""
    records = make_records(50, seed=7)
    breaks = evenly_spaced_break_indices(records, 8)
    stats = partition_stats(records, breaks)
    trusted = BucketState(records, list(breaks), stats=stats, trusted=True)
    validated = BucketState(records, list(breaks))
    assert trusted.reps.tolist() == validated.reps.tolist()
    assert trusted.probs.tolist() == validated.probs.tolist()
    assert trusted.estimates.tolist() == validated.estimates.tolist()
    assert [b.hi for b in trusted.buckets] == [b.hi for b in validated.buckets]
