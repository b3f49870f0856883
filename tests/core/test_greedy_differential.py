"""Differential oracle: the shipped greedy search against the one it replaced.

``repro.core.cost`` / ``repro.core.greedy`` must be an *exact*
replacement for the from-scratch implementation kept verbatim in
``greedy_reference.py``: identical break indices from every search —
through the memo, under a bucket cap, after evictions, across a
checkpoint round trip — and cost arrays equal bit for bit, since a
last-bit difference flips near-tied argmins.  A hypothesis state machine
drives one :class:`GreedyBucketing` over unbounded and bounded record
stores and compares after every search.  The closed-form scan is held to
the kernel's first argmin on every segment of arbitrary streams, with
the rounding bound of docs/ALGORITHMS.md §3 checked in exact arithmetic;
the near-tie and guard tests pin which path settles a segment, and the
work-count tests check that the memo skips what it may and nothing else.
"""

import json
from fractions import Fraction
from math import inf

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule

import repro.core.greedy as greedy_module
from repro.core.cost import greedy_split_costs
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


def assert_costs_match(records, lo, hi, first, last):
    """The kernel equals the reference, over the segment and over a span of it."""
    expected = reference_split_costs(records, lo, hi)
    assert not np.isnan(expected).any()
    assert np.array_equal(greedy_split_costs(records, lo, hi), expected)
    span = greedy_split_costs(records, lo, hi, first, last)
    assert np.array_equal(span, expected[first - lo : last - lo + 1])


def scan(records, lo, hi):
    return greedy_module._scan(records, lo, hi, greedy_module._low_prefix(records, lo, hi))


def records_of(pairs):
    records = RecordList()
    for task_id, (value, significance) in enumerate(pairs):
        records.add(value, significance=significance, task_id=task_id)
    return records


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
        first = data.draw(st.integers(lo, hi))
        assert_costs_match(records, lo, hi, first, data.draw(st.integers(first, hi)))
        assert_costs_match(records, 0, hi, 0, hi)
        if lo < hi:
            assert scan(records, lo, hi) == lo + int(greedy_split_costs(records, lo, hi).argmin())

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


# -- the closed-form scan against the four-case kernel ----------------------------

U = Fraction(1, 2**53)
ETA = Fraction(1, 2**1075)


def closed_form(records, lo, hi):
    """``h = p1 * (rep1 - p1 * rep2)`` with ``_scan``'s operations."""
    w1 = greedy_module._low_prefix(records, lo, hi)
    p1 = w1 / w1[-1]
    h = np.multiply(p1, records.values[hi])
    np.subtract(records.values[lo : hi + 1], h, out=h)
    h *= p1
    return h


def identity_bound(records, lo, hi):
    """docs/ALGORITHMS.md §3's bound on ``|K + h - W_f|``, exactly; ``None`` on a guard.

    ``u·(16.875·R + 13·μ) + η·(17·R + 6·V + 8)``: the sum of the
    kernel's and the closed form's rounding errors against the one real
    cost, with R = rep2, μ = S/T, V = S/w1[0] + S/(T - w1[m-2]).
    """
    w1 = greedy_module._low_prefix(records, lo, hi)
    total, first, last_share = float(w1[-1]), float(w1[0]), float(w1[-1]) - float(w1[-2])
    if not (0.0 < first and 0.0 < last_share < inf):
        return None
    svp = records.sigval_prefix
    s = Fraction(float(svp[hi])) - (Fraction(float(svp[lo - 1])) if lo else 0)
    r = Fraction(float(records.values[hi]))
    t = Fraction(total)
    v = s / Fraction(first) + s / Fraction(last_share)
    return r - s / t, U * (Fraction(135, 8) * r + 13 * s / t) + ETA * (17 * r + 6 * v + 8)


STREAM = st.lists(
    st.tuples(
        st.one_of(st.sampled_from([1.0, 2.0, 2.5, 10.0]), VALUES),
        st.one_of(SIGNIFICANCES, EXTREME_SIGNIFICANCES, st.sampled_from([1.0, 2.0, 3.0])),
    ),
    min_size=2,
    max_size=14,
)


@settings(max_examples=120, deadline=None)
@given(STREAM)
def test_scan_is_the_kernels_first_argmin_on_every_segment(stream):
    records = records_of(stream)
    n = len(records)
    for lo in range(n):
        for hi in range(lo + 1, n):
            kernel = greedy_split_costs(records, lo, hi)
            assert scan(records, lo, hi) == lo + int(kernel.argmin())
            bound = identity_bound(records, lo, hi)
            if bound is None:
                continue
            k, limit = bound
            h = closed_form(records, lo, hi)
            for h_i, w_i in zip(h.tolist(), kernel.tolist()):
                assert abs(k + Fraction(h_i) - Fraction(w_i)) <= limit


@pytest.fixture
def kernel_calls(monkeypatch):
    """``(lo, hi, first, last)`` of every kernel call ``_scan`` makes."""
    calls = []

    def spy(records, lo, hi, first=None, last=None):
        calls.append((lo, hi, first, last))
        return greedy_split_costs(records, lo, hi, first, last)

    monkeypatch.setattr(greedy_module, "greedy_split_costs", spy)
    return calls


@pytest.mark.parametrize(
    "pairs, lo, hi, expected",
    [
        # docs/ALGORITHMS.md's worked example, v1 = v2/2 at equal
        # significance: splitting and not splitting tie exactly in the
        # reals, h is 0.0 at both candidates, and the kernel's last bit
        # keeps one bucket.
        pytest.param([(0.15, 1.0), (0.3, 1.0)], 0, 1, 1, id="worked-example"),
        # Found by a seeded search over small value sets: h ranks the
        # whole segment ahead of the split by 4.6e-18, inside the
        # margin, and the kernel splits.
        pytest.param(
            [(0.1, 1.0), (0.3, 2.0), (0.7, 3.0), (2.0, 3.0)], 0, 1, 0, id="found-by-search"
        ),
    ],
)
def test_near_ties_are_settled_by_the_kernel_on_their_span(kernel_calls, pairs, lo, hi, expected):
    records = records_of(pairs)
    h = closed_form(records, lo, hi)
    assert lo + int(h.argmin()) != expected
    assert scan(records, lo, hi) == expected
    assert lo + int(reference_split_costs(records, lo, hi).argmin()) == expected
    assert kernel_calls == [(lo, hi, lo, hi)]


def test_separated_candidates_never_reach_the_kernel(kernel_calls):
    records = records_of([(v, float(i + 1)) for i, v in enumerate(skewed_stream(300, seed=15))])
    assert greedy_break_indices(records) == reference_break_indices(records)
    assert kernel_calls == []


def guard_cases():
    heavy = [(10.0 + i, 1e18) for i in range(8)]
    light = [(500.0 + i, 1e-300) for i in range(4)]
    heavy_then_light = heavy + light
    light_then_heavy = [(value - 499.0, sig) for value, sig in light] + heavy
    return [
        # Leading significances vanish against the prefix below ``lo``.
        pytest.param(heavy_then_light + [(900.0, 1e18)], 8, 12, id="leading-vanishing"),
        # The high bucket of the last candidates before ``hi`` rounds to 0.
        pytest.param(heavy_then_light, 0, 11, id="trailing-vanishing"),
        # A 1e-300 low bucket at ``lo == 0`` keeps its weight, but S/w1[0]
        # in the margin overflows.
        pytest.param(light_then_heavy, 0, 11, id="tiny-first-significance"),
        # sig*value prefix overflows: S is infinite, so is the margin.
        pytest.param([(1e8 + i, 1e300) for i in range(4)], 0, 3, id="1e300-sigval-overflow"),
        # The significance prefix itself overflows: T is infinite, with
        # the last low prefix finite or infinite too.
        pytest.param(
            [(0.01 * (i + 1), 1e307) for i in range(18)], 0, 17, id="1e307-sig-overflow-at-hi"
        ),
        pytest.param([(0.5 + i, 1e307) for i in range(40)], 10, 39, id="1e307-sig-overflow"),
    ]


@pytest.mark.parametrize("pairs, lo, hi", guard_cases())
def test_degenerate_segments_take_the_kernel_whole(kernel_calls, pairs, lo, hi):
    # The overflow cases build infinite prefix sums, and both kernels
    # take inf - inf on the way to the same NaN costs.
    with np.errstate(over="ignore", invalid="ignore"):
        records = records_of(pairs)
        expected = lo + int(np.argmin(reference_split_costs(records, lo, hi)))
        assert scan(records, lo, hi) == expected
        assert kernel_calls == [(lo, hi, None, None)]
        assert greedy_break_indices(records) == reference_break_indices(records)


# -- work counts: what the memo may skip, and what it may not ---------------------


@pytest.fixture
def scanned(monkeypatch):
    """Segments the search scanned, in order."""
    segments = []
    scan_segment = greedy_module._scan

    def spy(records, lo, hi, w1):
        segments.append((lo, hi))
        return scan_segment(records, lo, hi, w1)

    monkeypatch.setattr(greedy_module, "_scan", spy)
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


def test_left_child_inherits_its_parents_low_prefix(monkeypatch, scanned):
    """One low prefix per distinct ``lo``: the left-anchored chain shares it."""
    prefixes = []
    build = greedy_module._low_prefix

    def spy(records, lo, hi):
        prefixes.append(lo)
        return build(records, lo, hi)

    monkeypatch.setattr(greedy_module, "_low_prefix", spy)
    records = RecordList()
    for i, value in enumerate(skewed_stream(400, seed=14)):
        records.add(value, significance=float(i + 1), task_id=i)
    assert greedy_break_indices(records) == reference_break_indices(records)
    assert sorted(prefixes) == sorted({lo for lo, _ in scanned})
    assert len(prefixes) < len(scanned)


# -- at the depth the service runs at -----------------------------------------------


def deep_stream(shape, n, seed=21):
    """``(value, significance)`` pairs: ``core-hot-greedy``'s three value shapes
    at task-id significances, and an adversarial-significance stream."""
    rng = np.random.default_rng([seed, len(shape)])
    sigs = np.arange(1.0, n + 1.0)
    if shape == "memory":
        high = rng.random(n) < 0.3
        values = np.where(high, rng.normal(24000.0, 2000.0, n), rng.normal(6000.0, 800.0, n))
        values = np.clip(values, 100.0, 60000.0)
    elif shape == "cores":
        values = np.clip(rng.lognormal(np.log(2.0), 0.5, n), 0.1, 16.0)
    elif shape == "disk":
        values = np.clip(rng.exponential(3000.0, n), 10.0, 60000.0)
    else:
        # Whole-number values (long runs of duplicates) under weights
        # that vanish against, or swallow, the running totals.
        values = rng.integers(1, 40, n).astype(float)
        sigs = rng.choice([1e-300, 1e-9, 1.0, 7.0, 1e9, 1e18], n)
    return list(zip(values.tolist(), sigs.tolist()))


@pytest.mark.slow
@pytest.mark.parametrize(
    "shape, depth, every",
    # The adversarial stream splits into hundreds of buckets, and the
    # reference rescans every one of them from scratch per search.
    [("memory", 20000, 8), ("cores", 12000, 8), ("disk", 12000, 8), ("adversarial", 6000, 12)],
)
def test_every_search_at_depth_matches_the_reference(shape, depth, every):
    """Every search on the way to ``depth`` returns the from-scratch four-case
    search's break indices; the paper-literal search is O(n^2) per scan here."""
    algo = GreedyBucketing(rng=np.random.default_rng(0))
    searches = 0
    for task_id, (value, significance) in enumerate(deep_stream(shape, depth)):
        algo.update(value, significance=significance, task_id=task_id)
        if task_id % every == every - 1:
            records = algo.records
            assert algo.compute_break_indices(records) == reference_break_indices(records)
            searches += 1
    assert len(algo.records) == depth and searches == depth // every
