"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buckets import BucketState
from repro.core.cost import (
    exhaustive_cost,
    exhaustive_cost_reference,
    greedy_split_costs,
)
from repro.core.exhaustive import evenly_spaced_break_indices, exhaustive_break_indices
from repro.core.greedy import greedy_break_indices
from repro.core.records import RecordList
from repro.core.resources import CORES, MEMORY, ResourceVector
from tests.core.greedy_reference import greedy_split_cost_reference

# -- strategies ---------------------------------------------------------------

record_values = st.lists(
    st.floats(min_value=0.001, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=60,
)

record_pairs = st.lists(
    st.tuples(
        st.floats(min_value=0.001, max_value=1e6, allow_nan=False, allow_infinity=False),
        st.floats(min_value=0.01, max_value=1e3, allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=60,
)


def build_records(pairs):
    rl = RecordList()
    for task_id, (value, sig) in enumerate(pairs):
        rl.add(value, significance=sig, task_id=task_id)
    return rl


# -- RecordList ---------------------------------------------------------------


@given(record_pairs)
def test_record_list_stays_sorted(pairs):
    rl = build_records(pairs)
    values = rl.values
    assert (np.diff(values) >= 0).all()


@given(record_pairs)
def test_weighted_mean_bounded_by_extremes(pairs):
    rl = build_records(pairs)
    mean = rl.weighted_mean(0, len(rl) - 1)
    assert rl.values[0] - 1e-9 <= mean <= rl.values[-1] + 1e-9


@given(record_pairs)
def test_prefix_sums_match_direct_sums(pairs):
    rl = build_records(pairs)
    direct_sig = sum(r.significance for r in rl)
    assert rl.total_significance() == np.float64(rl.sig_prefix[-1])
    assert abs(rl.sig_prefix[-1] - direct_sig) <= 1e-6 * max(direct_sig, 1)


# -- BucketState ----------------------------------------------------------------


@given(record_pairs, st.randoms(use_true_random=False))
def test_any_partition_has_valid_state(pairs, rnd):
    rl = build_records(pairs)
    n = len(rl)
    # Random strictly-increasing break set ending at n-1.
    k = rnd.randint(1, min(5, n))
    breaks = sorted(rnd.sample(range(n - 1), min(k - 1, n - 1))) + [n - 1]
    state = BucketState(rl, breaks)
    state.validate()
    assert abs(state.probs.sum() - 1.0) < 1e-9
    assert (np.diff(state.reps) >= 0).all()
    for bucket in state.buckets:
        assert bucket.estimate <= bucket.rep + 1e-9


@given(record_pairs)
def test_retry_is_strictly_increasing_until_none(pairs):
    rl = build_records(pairs)
    state = BucketState(rl, greedy_break_indices(rl))
    rng = np.random.default_rng(0)
    allocation = float(state.reps[0])
    for _ in range(len(state) + 2):
        nxt = state.retry_allocation(allocation, rng)
        if nxt is None:
            break
        assert nxt > allocation
        allocation = nxt
    else:
        raise AssertionError("retry ladder did not terminate")


# -- cost kernels ------------------------------------------------------------------


@given(record_pairs)
def test_greedy_costs_match_reference_everywhere(pairs):
    rl = build_records(pairs)
    hi = len(rl) - 1
    costs = greedy_split_costs(rl, 0, hi)
    for i in range(hi + 1):
        ref = greedy_split_cost_reference(rl, 0, i, hi)
        assert abs(costs[i] - ref) <= 1e-6 * max(abs(ref), 1.0)


@given(record_pairs)
def test_greedy_costs_non_negative(pairs):
    rl = build_records(pairs)
    costs = greedy_split_costs(rl, 0, len(rl) - 1)
    assert (costs >= -1e-6).all()


@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.floats(min_value=0.1, max_value=1e4, allow_nan=False),
                min_size=n, max_size=n,
            ),
            st.lists(
                st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
                min_size=n, max_size=n,
            ),
            st.lists(
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                min_size=n, max_size=n,
            ),
        )
    )
)
def test_exhaustive_cost_matches_reference(data):
    raw_reps, raw_probs, est_fracs = data
    reps = np.sort(np.array(raw_reps))
    probs = np.array(raw_probs)
    probs = probs / probs.sum()
    estimates = reps * np.array(est_fracs)
    fast = exhaustive_cost(reps, probs, estimates)
    slow = exhaustive_cost_reference(list(reps), list(probs), list(estimates))
    assert abs(fast - slow) <= 1e-6 * max(abs(slow), 1.0)
    assert fast >= -1e-9


# -- break-index algorithms -----------------------------------------------------------


@given(record_pairs)
def test_greedy_breaks_partition_the_records(pairs):
    rl = build_records(pairs)
    breaks = greedy_break_indices(rl)
    assert breaks == sorted(set(breaks))
    assert breaks[-1] == len(rl) - 1
    assert all(0 <= b < len(rl) for b in breaks)


@given(record_pairs, st.integers(min_value=1, max_value=12))
def test_evenly_spaced_breaks_partition_the_records(pairs, k):
    rl = build_records(pairs)
    breaks = evenly_spaced_break_indices(rl, k)
    assert breaks == sorted(set(breaks))
    assert breaks[-1] == len(rl) - 1
    assert len(breaks) <= k


@given(record_pairs)
@settings(max_examples=30)
def test_exhaustive_choice_never_worse_than_single_bucket(pairs):
    rl = build_records(pairs)
    breaks = exhaustive_break_indices(rl)
    chosen = BucketState(rl, breaks)
    single = BucketState.single(rl)
    chosen_cost = exhaustive_cost(chosen.reps, chosen.probs, chosen.estimates)
    single_cost = exhaustive_cost(single.reps, single.probs, single.estimates)
    assert chosen_cost <= single_cost + 1e-6 * max(single_cost, 1.0)


# -- ResourceVector algebra ----------------------------------------------------------

component = st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False)


@given(component, component, component, component)
def test_vector_add_sub_roundtrip_dominates(c1, m1, c2, m2):
    a = ResourceVector({CORES: c1, MEMORY: m1})
    b = ResourceVector({CORES: c2, MEMORY: m2})
    # (a + b) - b >= a componentwise (equality up to float noise).
    roundtrip = (a + b) - b
    assert roundtrip[CORES] >= a[CORES] - 1e-6 * max(a[CORES], 1)
    assert roundtrip[MEMORY] >= a[MEMORY] - 1e-6 * max(a[MEMORY], 1)


@given(component, component, component, component)
def test_fits_within_consistent_with_exceeded_by(c1, m1, c2, m2):
    usage = ResourceVector({CORES: c1, MEMORY: m1})
    limit = ResourceVector({CORES: c2, MEMORY: m2})
    assert usage.fits_within(limit) == (limit.exceeded_by(usage) == ())


@given(component, component)
def test_componentwise_max_is_upper_bound(c, m):
    a = ResourceVector({CORES: c, MEMORY: m})
    b = ResourceVector({CORES: m, MEMORY: c})
    top = a.componentwise_max(b)
    assert a.fits_within(top) and b.fits_within(top)
