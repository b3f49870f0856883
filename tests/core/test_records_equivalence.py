"""Equivalence: array-backed RecordList vs the seed implementation.

The fast path in :mod:`repro.core.records` replaced the seed's sorted
Python-object list (kept as ``records_reference.LegacyRecordList``,
beside this file) with preallocated
numpy buffers and incremental prefix sums.  These property-based tests
drive both implementations through random insert/evict sequences and
assert the observable API agrees:

* record order (values, significances, task ids) — exactly;
* prefix sums and weighted means — to float tolerance (the incremental
  maintenance associates the additions differently than a full cumsum),
  and each weighted mean within the same tolerance of the exact one;
* ``index_below`` and eviction survivors — exactly.
"""

import bisect
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.records import RecordList, ResourceRecord
from tests.core.records_reference import LegacyRecordList

# One record as (value, significance, task_id); values repeat often so
# tie-breaking paths are exercised.
record_strategy = st.tuples(
    st.sampled_from([0.0, 1.0, 1.5, 2.0, 5.0, 5.0, 100.0, 1e6])
    | st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False),
    st.sampled_from([1.0, 2.0, 2.0, 7.5])
    | st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False),
    st.integers(min_value=-1, max_value=10_000),
)

sequence_strategy = st.lists(record_strategy, min_size=1, max_size=60)


def _assert_equivalent(new: RecordList, old: LegacyRecordList) -> None:
    assert len(new) == len(old)
    np.testing.assert_array_equal(new.values, old.values)
    np.testing.assert_array_equal(new.significances, old.significances)
    assert [r.task_id for r in new] == [r.task_id for r in old]
    np.testing.assert_allclose(new.sig_prefix, old.sig_prefix, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(
        new.sigval_prefix, old.sigval_prefix, rtol=1e-12, atol=1e-9
    )
    assert new.total_significance() == pytest.approx(old.total_significance())
    n = len(new)
    probes = {0.0, 1.0, float(old.values[0]), float(old.values[-1]), 1e12}
    for probe in probes:
        assert new.index_below(probe) == old.index_below(probe)
    # A few deterministic subranges, including the full range.
    ranges = [(0, n - 1)]
    if n >= 3:
        ranges += [(1, n - 1), (0, n // 2), (n // 3, 2 * n // 3)]
    # Range queries subtract prefix sums, so their rounding error scales
    # with the *prefix* magnitude, not the difference: a subrange whose
    # true sum is tiny next to the running total cancels catastrophically,
    # and weighted_mean then divides by a possibly-tiny significance
    # total, amplifying that absolute error further.  Both
    # implementations are correctly rounded individually; the tolerance
    # must follow the condition number, not a fixed rel.
    eps = np.finfo(float).eps
    tiny = np.finfo(float).tiny
    sp_scale = float(np.max(np.abs(old.sig_prefix)))
    svp_scale = float(np.max(np.abs(old.sigval_prefix)))
    slack = 8 * max(n, 8) * eps  # accumulated over incremental maintenance
    sig = [Fraction(s) for s in old.significances.tolist()]
    sigval = [s * Fraction(v) for s, v in zip(sig, old.values.tolist())]
    for lo, hi in ranges:
        den = max(old.sig_sum(lo, hi), tiny)
        assert new.sig_sum(lo, hi) == pytest.approx(
            old.sig_sum(lo, hi), rel=1e-6, abs=slack * sp_scale
        )
        # The quotient errs by the value prefix's error plus the mean
        # times the significance prefix's: both prefixes cancel when a
        # light subrange sits above a heavy one.  ``tiny`` covers gradual
        # underflow (slack * tiny is 8 * max(n, 8) subnormal steps).
        exact = float(sum(sigval[lo : hi + 1]) / sum(sig[lo : hi + 1]))
        bound = slack * (svp_scale + abs(exact) * sp_scale + tiny) / den
        for mean in (new.weighted_mean(lo, hi), old.weighted_mean(lo, hi)):
            assert abs(mean - exact) <= bound
        assert new.weighted_mean(lo, hi) == pytest.approx(
            old.weighted_mean(lo, hi), rel=1e-6, abs=bound
        )
        assert new.max_value(lo, hi) == old.max_value(lo, hi)


@settings(max_examples=200, deadline=None)
@given(sequence_strategy)
# A light pair inserted before a heavy record that sorts below it:
# (65536 + 2e-6) - 65536 cancels in the significance prefix, and the two
# implementations read 0.99999966 and 1.0000069 against an exact 1.0.
@example([(1.0, 1e-6, 0), (1.0, 1e-6, 1), (0.0, 65536.0, 2)])
def test_append_sequences_match_seed_implementation(ops):
    new, old = RecordList(), LegacyRecordList()
    for value, sig, task_id in ops:
        new.add(value, significance=sig, task_id=task_id)
        old.add(value, significance=sig, task_id=task_id)
    _assert_equivalent(new, old)


# Few distinct integer values and significances: most inserts land in a
# run of equal values, many on an equal (value, significance) key.
tied_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=4), st.sampled_from([1.0, 2.0, 3.0])),
    min_size=1,
    max_size=80,
)


@settings(max_examples=300, deadline=None)
@given(tied_strategy)
def test_tied_inserts_rest_where_insort_puts_them(ops):
    """The returned index is ``bisect_right`` of the (value, significance) key."""
    new, old = RecordList(), LegacyRecordList()
    keys = []
    for task_id, (value, sig) in enumerate(ops):
        expected = bisect.bisect_right(keys, (value, sig))
        keys.insert(expected, (value, sig))
        assert new.add(value, significance=sig, task_id=task_id) == expected
        old.add(value, significance=sig, task_id=task_id)
        assert new[expected].task_id == task_id
        _assert_equivalent(new, old)


@settings(max_examples=150, deadline=None)
@given(sequence_strategy, st.integers(min_value=1, max_value=20))
def test_windowed_eviction_matches_seed_implementation(ops, capacity):
    new = RecordList(capacity=capacity)
    old = LegacyRecordList(capacity=capacity)
    for value, sig, task_id in ops:
        before = len(new)
        pos = new.add(value, significance=sig, task_id=task_id)
        old.add(value, significance=sig, task_id=task_id)
        assert len(new) <= capacity
        # None exactly when the store compacted instead of growing.
        assert (pos is None) == (len(new) <= before)
        _assert_equivalent(new, old)


@settings(max_examples=100, deadline=None)
@given(sequence_strategy)
def test_bulk_construction_matches_seed_implementation(ops):
    records = [
        ResourceRecord(value=v, significance=s, task_id=t) for v, s, t in ops
    ]
    _assert_equivalent(RecordList(records), LegacyRecordList(records))


@settings(max_examples=100, deadline=None)
@given(sequence_strategy, st.integers(min_value=1, max_value=10))
def test_bulk_construction_with_capacity_matches(ops, capacity):
    records = [
        ResourceRecord(value=v, significance=s, task_id=t) for v, s, t in ops
    ]
    _assert_equivalent(
        RecordList(records, capacity=capacity),
        LegacyRecordList(records, capacity=capacity),
    )


class TestArrayBackedInternals:
    """Behaviours specific to the array-backed implementation."""

    def test_views_are_snapshots_across_mutation(self):
        rl = RecordList()
        rl.add(1.0)
        before = rl.values
        rl.add(2.0)
        # The old array must not be mutated in place by the append.
        assert list(before) == [1.0]
        assert list(rl.values) == [1.0, 2.0]

    def test_buffer_growth_preserves_contents(self):
        rl = RecordList()
        values = list(range(1, 200))  # crosses several doubling boundaries
        for v in reversed(values):
            rl.add(float(v))
        assert list(rl.values) == [float(v) for v in values]
        assert rl.sig_sum(0, len(values) - 1) == pytest.approx(len(values))

    def test_single_eviction_fast_path_matches_stable_tie_break(self):
        # Over by one, two records tie on minimal significance: the
        # earlier index (lower value) must be evicted, as the seed's
        # stable sort did.
        new = RecordList(capacity=2)
        old = LegacyRecordList(capacity=2)
        for rl in (new, old):
            rl.add(10.0, significance=1.0, task_id=0)
            rl.add(20.0, significance=1.0, task_id=1)
            rl.add(30.0, significance=5.0, task_id=2)
        np.testing.assert_array_equal(new.values, old.values)
        assert list(new.values) == [20.0, 30.0]

    def test_task_ids_view(self):
        rl = RecordList()
        rl.add(2.0, task_id=7)
        rl.add(1.0, task_id=3)
        assert list(rl.task_ids) == [3, 7]
        with pytest.raises(ValueError):
            rl.task_ids[0] = 0

    def test_add_validates_like_resource_record(self):
        rl = RecordList()
        with pytest.raises(ValueError):
            rl.add(-1.0)
        with pytest.raises(ValueError):
            rl.add(float("nan"))
        with pytest.raises(ValueError):
            rl.add(1.0, significance=0.0)

    def test_negative_indexing_and_slices(self):
        rl = RecordList()
        for v in [3.0, 1.0, 2.0]:
            rl.add(v)
        assert rl[-1].value == 3.0
        assert [r.value for r in rl[0:2]] == [1.0, 2.0]
        with pytest.raises(IndexError):
            rl[3]
