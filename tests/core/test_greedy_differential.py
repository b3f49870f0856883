"""Differential oracle: the shipped greedy search against the one it replaced.

``repro.core.cost`` / ``repro.core.greedy`` must be an *exact*
replacement for the from-scratch implementation kept verbatim in
``greedy_reference.py``: identical break indices from every search —
through the memo, under a bucket cap, after evictions, across a
checkpoint round trip — and cost arrays equal bit for bit, since a
last-bit difference flips near-tied argmins.  A hypothesis state machine
drives one :class:`GreedyBucketing` over unbounded and bounded record
stores and compares after every search; the work-count tests below it
check that the memo skips what it may and nothing else.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule

import repro.core.greedy as greedy_module
from repro.core.cost import anchored_split_costs, greedy_split_costs, split_anchor
from repro.core.greedy import GreedyBucketing, GreedySplitMemo, greedy_break_indices
from repro.core.records import RecordList
from tests.core.greedy_reference import reference_break_indices, reference_split_costs
from tests.core.test_incremental import feed

#: record_capacity; tiny, so that compactions of one record (6) and of
#: a slack batch of two (10) both happen within a run.
CAPACITIES = (None, 6, 10)

#: A few round numbers (duplicates, exact ties) among arbitrary floats.
VALUES = st.one_of(
    st.sampled_from([1.0, 2.0, 2.5, 10.0, 1000.0]),
    st.floats(min_value=0.001, max_value=1e6, allow_nan=False, allow_infinity=False),
)
SIGNIFICANCES = st.floats(min_value=0.01, max_value=1e3, allow_nan=False, allow_infinity=False)
#: Against a running total of ordinary weights these vanish, or swallow
#: it: the high bucket's weight rounds to zero before the last candidate.
EXTREME_SIGNIFICANCES = st.sampled_from([1e-300, 1e-18, 1e-9, 1e12, 1e18])
CAPS = st.sampled_from([None, 1, 2, 3, 5])


# A bucket whose significance rounds to zero against the prefix sums
# contributes 0 in both implementations: no 0/0, no NaN for argmin to pick.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def assert_costs_match(records, lo, hi, anchor_hi):
    expected = reference_split_costs(records, lo, hi)
    assert not np.isnan(expected).any()
    assert np.array_equal(greedy_split_costs(records, lo, hi), expected)
    inherited = anchored_split_costs(records, lo, hi, split_anchor(records, lo, anchor_hi))
    assert np.array_equal(inherited, expected)


class GreedyEquivalence(RuleBasedStateMachine):
    @initialize(capacity=st.sampled_from(CAPACITIES), max_buckets=CAPS)
    def configure(self, capacity, max_buckets):
        self.max_buckets = max_buckets
        self.make = lambda: GreedyBucketing(
            rng=np.random.default_rng(3),
            record_capacity=capacity,
            max_buckets=max_buckets,
        )
        self.algo = self.make()
        self.next_id = 0

    def _add(self, value, significance):
        self.algo.update(value, significance=significance, task_id=self.next_id)
        self.next_id += 1

    @rule(value=VALUES, significance=SIGNIFICANCES)
    def add(self, value, significance):
        self._add(value, significance)

    @precondition(lambda self: self.algo.n_records)
    @rule(index=st.integers(0, 1000), significance=SIGNIFICANCES)
    def add_duplicate_value(self, index, significance):
        records = self.algo.records
        self._add(float(records.values[index % len(records)]), significance)

    @rule(value=VALUES, significance=EXTREME_SIGNIFICANCES)
    def add_extreme_significance(self, value, significance):
        self._add(value, significance)

    @precondition(lambda self: self.algo.n_records)
    @rule(data=st.data())
    def search(self, data):
        """One search through the memo, then the kernel on random segments."""
        records = self.algo.records
        assert self.algo.compute_break_indices(records) == reference_break_indices(
            records, max_buckets=self.max_buckets
        )
        n = len(records)
        lo = data.draw(st.integers(0, n - 1))
        hi = data.draw(st.integers(lo, n - 1))
        assert_costs_match(records, lo, hi, data.draw(st.integers(hi, n - 1)))
        assert_costs_match(records, 0, hi, n - 1)

    @precondition(lambda self: self.algo.n_records)
    @rule(max_buckets=CAPS)
    def search_from_scratch_with_cap(self, max_buckets):
        records = self.algo.records
        assert greedy_break_indices(records, max_buckets=max_buckets) == (
            reference_break_indices(records, max_buckets=max_buckets)
        )

    @precondition(lambda self: self.algo.n_records)
    @rule()
    def predict(self):
        """The algorithm's own path: a search only after an add."""
        before = self.algo.recomputations
        assert self.algo.predict() is not None
        if self.algo.recomputations > before:
            assert [b.hi for b in self.algo.state.buckets] == reference_break_indices(
                self.algo.records, max_buckets=self.max_buckets
            )

    @rule()
    def checkpoint_round_trip(self):
        snapshot = json.loads(json.dumps(self.algo.state_dict()))
        self.algo = self.make()
        self.algo.load_state(snapshot)


TestGreedyEquivalence = GreedyEquivalence.TestCase
TestGreedyEquivalence.settings = settings(
    max_examples=200,
    stateful_step_count=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def test_vanishing_significance_candidates_cost_zero_not_nan():
    """Weights that round to zero against the prefix sums are no 0/0.

    Twenty heavy records, then light ones with the largest values: the
    light tail's significance differences are exactly 0.0.
    """
    records = RecordList()
    for i in range(20):
        records.add(10.0 + i, significance=1e18, task_id=i)
    for i in range(20, 24):
        records.add(1000.0 + i, significance=1e-300, task_id=i)
    n = len(records)
    # A weightless low bucket at the first candidates of a mixed segment:
    # they tie with the no-split cost instead of poisoning the argmin.
    records.add(5000.0, significance=1e18, task_id=n)
    mixed = greedy_split_costs(records, 20, n)
    assert np.array_equal(mixed, reference_split_costs(records, 20, n))
    assert not np.isnan(mixed).any()
    assert np.all(mixed[:4] == mixed[-1])
    # A wholly weightless segment costs nothing wherever it is cut.
    assert np.array_equal(greedy_split_costs(records, 20, 23), np.zeros(4))
    assert greedy_break_indices(records) == reference_break_indices(records)
    # Positive weights are untouched: the heavy prefix scores as before.
    heavy = greedy_split_costs(records, 0, 19)
    assert np.array_equal(heavy, reference_split_costs(records, 0, 19))
    assert np.all(heavy > 0.0)


# -- work counts: what the memo may skip, and what it may not ---------------------


@pytest.fixture
def scanned(monkeypatch):
    """Segments handed to the cost kernel by the search, in order."""
    segments = []
    kernel = greedy_module.anchored_split_costs

    def spy(records, lo, hi, anchor):
        segments.append((lo, hi))
        return kernel(records, lo, hi, anchor)

    monkeypatch.setattr(greedy_module, "anchored_split_costs", spy)
    return segments


def skewed_stream(n, seed=11):
    return np.random.default_rng(seed).exponential(3000.0, n).tolist()


def test_insert_rescans_only_segments_reaching_it(scanned):
    """Below the insert, a segment is scanned only if the last search never
    examined it (a re-scanned ancestor moved its break)."""
    values = skewed_stream(460)
    records = RecordList()
    engine = GreedySplitMemo(records)
    for i, value in enumerate(values[:400]):
        feed(records, engine, value, float(i + 1), i)
    assert engine.break_indices() == reference_break_indices(records)
    saved = 0
    for i, value in enumerate(values[400:], start=400):
        pos = feed(records, engine, value, float(i + 1), i)
        remembered = {key for key in engine._memo if key[1] < pos}
        scanned.clear()
        assert engine.break_indices() == reference_break_indices(records)
        through_memo = list(scanned)
        assert (0, len(records) - 1) in through_memo
        assert not remembered.intersection(through_memo)
        scanned.clear()
        greedy_break_indices(records)
        # The memo only ever removes scans: exactly the remembered ones.
        assert set(scanned) - set(through_memo) == remembered.intersection(scanned)
        assert set(through_memo) <= set(scanned)
        saved += len(scanned) - len(through_memo)
    assert saved > 0


def test_several_inserts_between_searches_rescan_from_the_lowest(scanned):
    values = skewed_stream(430, seed=12)
    records = RecordList()
    engine = GreedySplitMemo(records)
    for i, value in enumerate(values[:400]):
        feed(records, engine, value, float(i + 1), i)
    engine.break_indices()
    for start in range(400, 430, 3):
        lowest = min(
            feed(records, engine, values[i], float(i + 1), i) for i in range(start, start + 3)
        )
        assert engine.clean == lowest
        remembered = {key for key in engine._memo if key[1] < lowest}
        scanned.clear()
        assert engine.break_indices() == reference_break_indices(records)
        assert not remembered.intersection(scanned)
        assert all(key in scanned for key in engine._memo if key[1] >= lowest)


def test_eviction_rescans_everything_from_the_root(scanned):
    values = skewed_stream(64 + 12 * 7, seed=13)
    records = RecordList(capacity=64)
    engine = GreedySplitMemo(records)
    for i, value in enumerate(values[:64]):
        feed(records, engine, value, float(i + 1), i)
    engine.break_indices()
    # Every seventh insert overflows the 64 and compacts to 58.
    for i in range(64, len(values), 7):
        assert feed(records, engine, values[i], float(i + 1), i) is None
        scanned.clear()
        assert engine.break_indices() == reference_break_indices(records)
        through_memo = list(scanned)
        scanned.clear()
        greedy_break_indices(records)
        assert through_memo == scanned and through_memo[0] == (0, len(records) - 1)
        for j in range(i + 1, i + 7):
            assert feed(records, engine, values[j], float(j + 1), j) is not None


def test_left_child_inherits_its_parents_anchor(monkeypatch, scanned):
    """One anchor per distinct ``lo``: the left-anchored chain shares it."""
    anchors = []
    build = greedy_module.split_anchor

    def spy(records, lo, hi):
        anchors.append(lo)
        return build(records, lo, hi)

    monkeypatch.setattr(greedy_module, "split_anchor", spy)
    records = RecordList()
    for i, value in enumerate(skewed_stream(400, seed=14)):
        records.add(value, significance=float(i + 1), task_id=i)
    assert greedy_break_indices(records) == reference_break_indices(records)
    assert sorted(anchors) == sorted({lo for lo, _ in scanned})
    assert len(anchors) < len(scanned)
