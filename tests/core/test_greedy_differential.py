"""Differential oracle: the shipped greedy search against the one it replaced.

``repro.core.cost`` / ``repro.core.greedy`` must be an *exact*
replacement for the from-scratch implementation kept verbatim in
``greedy_reference.py``: identical break indices from every search —
through the memo, from scratch, after evictions, across a
checkpoint round trip — and cost arrays equal bit for bit, since a
last-bit difference flips near-tied argmins.  A hypothesis state machine
drives one :class:`GreedyBucketing` over unbounded and bounded record
stores and compares after every search, under arbitrary weights and
under the integral ones that let the memo reuse shifted segments.  The
closed-form scan is held to the kernel's first argmin on every segment
of arbitrary streams, with the rounding bound of docs/ALGORITHMS.md §3
checked in exact arithmetic; the near-tie and guard tests pin which path
settles a segment, and the memo tests check that it skips what it may
and nothing else, and that a shifted segment's reuse carries a fresh
scan's bits.
"""

import json
from contextlib import contextmanager
from fractions import Fraction
from math import inf
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

import repro.core.greedy as greedy_module
from repro.core.cost import greedy_split_costs
from repro.core.greedy import GreedyBucketing, GreedySplitMemo, greedy_break_indices
from repro.core.records import RecordList
from repro.core.significance import exponential_decay_significance
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
#: Integral weights at the scale where a few dozen still sum below 2**53.
INTEGRAL_WEIGHTS = st.integers(10**11, 10**13).map(float)


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


def scan_entry(records, lo, hi):
    """``_scan``'s ``(break - lo, certificate)`` for ``[lo, hi]``."""
    return greedy_module._scan(records, lo, hi, greedy_module._low_prefix(records, lo, hi))


def scan(records, lo, hi):
    return lo + scan_entry(records, lo, hi)[0]


def bits(entry):
    """A memo entry with every float spelled out, so ``-0.0 != 0.0``."""
    offset, cert = entry
    return offset, None if cert is None else tuple(float(x).hex() for x in cert)


def exact_oracle(records):
    """Every significance integral and their exact sum below 2**53."""
    sigs = records.significances.tolist()
    return all(s.is_integer() for s in sigs) and sum(int(s) for s in sigs) < 2**53


def records_of(pairs):
    records = RecordList()
    for task_id, (value, significance) in enumerate(pairs):
        records.add(value, significance=significance, task_id=task_id)
    return records


class GreedyEquivalence(RuleBasedStateMachine):
    @initialize(capacity=st.sampled_from(CAPACITIES), integral=st.booleans())
    def configure(self, capacity, integral):
        # Integral weights keep the prefix sums exact, which is when the
        # memo reuses segments shifted by an insert; one arbitrary float
        # ends that, so half the runs draw integral weights only.
        self.integral = integral
        self.make = lambda: GreedyBucketing(
            rng=np.random.default_rng(3), record_capacity=capacity
        )
        self.algo = self.make()
        self.next_id = 0

    def _add(self, value, significance):
        self.algo.update(value, significance=significance, task_id=self.next_id)
        self.next_id += 1

    @precondition(lambda self: not self.integral)
    @rule(value=VALUES, significance=SIGNIFICANCES)
    def add(self, value, significance):
        self._add(value, significance)

    @precondition(lambda self: self.algo.n_records and not self.integral)
    @rule(index=st.integers(0, 1000), significance=SIGNIFICANCES)
    def add_duplicate_value(self, index, significance):
        records = self.algo.records
        self._add(float(records.values[index % len(records)]), significance)

    @precondition(lambda self: not self.integral)
    @rule(value=VALUES, significance=EXTREME_SIGNIFICANCES)
    def add_extreme_significance(self, value, significance):
        self._add(value, significance)

    @rule(value=VALUES)
    def add_task_id_significance(self, value):
        """The paper's rule: significance = task id, counted from 1."""
        self._add(value, float(self.next_id + 1))

    @precondition(lambda self: self.algo.n_records)
    @rule(index=st.integers(0, 1000))
    def add_duplicate_value_task_id_significance(self, index):
        records = self.algo.records
        self._add(float(records.values[index % len(records)]), float(self.next_id + 1))

    @rule(value=VALUES, significance=INTEGRAL_WEIGHTS)
    def add_integral_weight(self, value, significance):
        self._add(value, significance)

    @rule(value=VALUES)
    def push_total_past_2_53(self, value):
        """Integral, but the total is no longer an exact float sum."""
        self._add(value, float(2**53 - 2**20))

    @invariant()
    def exactness_follows_the_records(self):
        algo = getattr(self, "algo", None)
        if algo is not None:
            assert algo.partition_engine.exact == exact_oracle(algo.records)

    @precondition(lambda self: self.algo.n_records)
    @rule(data=st.data())
    def search(self, data):
        """One search through the memo, then the kernel on random segments."""
        records = self.algo.records
        assert self.algo.compute_break_indices(records) == reference_break_indices(records)
        n = len(records)
        lo = data.draw(st.integers(0, n - 1))
        hi = data.draw(st.integers(lo, n - 1))
        first = data.draw(st.integers(lo, hi))
        assert_costs_match(records, lo, hi, first, data.draw(st.integers(first, hi)))
        assert_costs_match(records, 0, hi, 0, hi)
        if lo < hi:
            assert scan(records, lo, hi) == lo + int(greedy_split_costs(records, lo, hi).argmin())

    @precondition(lambda self: self.algo.n_records)
    @rule()
    def search_from_scratch(self):
        records = self.algo.records
        assert greedy_break_indices(records) == reference_break_indices(records)

    @precondition(lambda self: self.algo.n_records)
    @rule()
    def predict(self):
        """The algorithm's own path: a search only after an add."""
        before = self.algo.recomputations
        assert self.algo.predict() is not None
        if self.algo.recomputations > before:
            assert [b.hi for b in self.algo.state.buckets] == reference_break_indices(
                self.algo.records
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


def forward(memo, inserts):
    """Where each memo entry lands after ``inserts`` (oldest first), and whether
    it moved: the forward image of ``_recall``'s back-mapping, written
    independently of it.  An entry whose segment an insert landed in is gone."""
    landed = {}
    for (lo, hi), entry in memo.items():
        moved = False
        for pos in inserts:
            if hi < pos:
                continue
            if lo < pos:
                break
            lo, hi, moved = lo + 1, hi + 1, True
        else:
            landed[lo, hi] = entry, moved
    return landed


def memo_scans(records, memo, inserts, exact, examined):
    """The segments of ``examined`` that a search through ``memo`` must scan.

    A remembered segment no insert moved is reused.  One that moved is
    reused only under exact prefix sums, with a certificate that a fresh
    scan of today's buffers returns again, bit for bit.  Everything else is
    scanned.  Calls ``_scan``: run it before clearing the ``scanned`` spy.
    """
    landed = forward(memo, inserts)
    scans = []
    for lo, hi in examined:
        entry, moved = landed.get((lo, hi), (None, False))
        if entry is not None and not moved:
            continue
        if entry is not None and exact and entry[1] is not None:
            fresh = scan_entry(records, lo, hi)
            if fresh[1] is not None:
                assert bits(fresh) == bits(entry)
                continue
        scans.append((lo, hi))
    return scans


def search_through_memo(scanned, records, engine, inserts):
    """One memo search checked against the reference and :func:`memo_scans`;
    returns the examined segments and where the last memo's entries landed."""
    memo, exact = engine._memo, engine.exact
    assert engine.pending == tuple(inserts)
    assert exact == exact_oracle(records)
    scanned.clear()
    greedy_break_indices(records)
    examined = list(scanned)
    expected = memo_scans(records, memo, inserts, exact, examined)
    scanned.clear()
    assert engine.break_indices() == reference_break_indices(records)
    assert scanned == expected
    assert engine.pending == ()
    return examined, forward(memo, inserts)


def test_insert_rescans_only_segments_reaching_it(scanned):
    """One insert per search at task-id weights: below the insert a segment is
    scanned only if the last search never examined it, above it only when
    uncertified or its certificate fails, and holding it always."""
    values = skewed_stream(460)
    records = RecordList()
    engine = GreedySplitMemo(records)
    for i, value in enumerate(values[:400]):
        feed(records, engine, value, float(i + 1), i)
    assert engine.break_indices() == reference_break_indices(records)
    reused = {False: 0, True: 0}
    for i, value in enumerate(values[400:], start=400):
        pos = feed(records, engine, value, float(i + 1), i)
        examined, landed = search_through_memo(scanned, records, engine, [pos])
        assert (0, len(records) - 1) in scanned
        for key in set(examined) - set(scanned):
            reused[landed[key][1]] += 1
    # Segments below the insert and segments moved by it both come back.
    assert reused[False] > 0 and reused[True] > 0


def test_several_inserts_between_searches_map_back_latest_first(scanned):
    values = skewed_stream(460, seed=12)
    records = RecordList()
    engine = GreedySplitMemo(records)
    for i, value in enumerate(values[:400]):
        feed(records, engine, value, float(i + 1), i)
    engine.break_indices()
    moved_reuses = 0
    for start in range(400, 460, 3):
        inserts = [
            feed(records, engine, values[i], float(i + 1), i) for i in range(start, start + 3)
        ]
        examined, landed = search_through_memo(scanned, records, engine, inserts)
        moved_reuses += sum(landed[key][1] for key in set(examined) - set(scanned))
    assert moved_reuses > 0


def test_non_integral_significance_turns_shifted_reuse_off(scanned):
    """One weight of 0.5 and the suffix add may round the prefix sums: every
    segment an insert moved is scanned, certified or not."""
    values = skewed_stream(440, seed=18)
    records = RecordList()
    engine = GreedySplitMemo(records)
    for i, value in enumerate(values[:400]):
        feed(records, engine, value, 0.5 if i == 200 else float(i + 1), i)
    assert not engine.exact
    engine.break_indices()
    moved = 0
    for i, value in enumerate(values[400:], start=400):
        pos = feed(records, engine, value, float(i + 1), i)
        examined, landed = search_through_memo(scanned, records, engine, [pos])
        assert not engine.exact
        moved += sum(1 for key in examined if key in landed and landed[key][1])
        assert all(not landed[key][1] for key in set(examined) - set(scanned))
    assert moved > 0


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
        assert engine.pending == () and not engine._memo
        scanned.clear()
        assert engine.break_indices() == reference_break_indices(records)
        through_memo = list(scanned)
        scanned.clear()
        greedy_break_indices(records)
        assert through_memo == scanned and through_memo[0] == (0, len(records) - 1)
        for j in range(i + 1, i + 7):
            assert feed(records, engine, values[j], float(j + 1), j) is not None


def test_left_child_inherits_its_parents_low_prefix(monkeypatch, scanned):
    """At most one low prefix per distinct ``lo`` scanned at, from scratch and
    through the memo: the left-anchored chain shares it."""
    prefixes = []
    build = greedy_module._low_prefix

    def spy(records, lo, hi):
        prefixes.append(lo)
        return build(records, lo, hi)

    monkeypatch.setattr(greedy_module, "_low_prefix", spy)
    records = RecordList()
    engine = GreedySplitMemo(records)
    for i, value in enumerate(skewed_stream(400, seed=14)):
        feed(records, engine, value, float(i + 1), i)
    assert greedy_break_indices(records) == reference_break_indices(records)
    assert sorted(prefixes) == sorted({lo for lo, _ in scanned})
    assert len(prefixes) < len(scanned)
    engine.break_indices()
    for i, value in enumerate(skewed_stream(40, seed=19), start=400):
        feed(records, engine, value, float(i + 1), i)
        prefixes.clear()
        scanned.clear()
        assert engine.break_indices() == reference_break_indices(records)
        assert len(prefixes) == len(set(prefixes))
        assert set(prefixes) <= {lo for lo, _ in scanned}


def test_the_memo_is_dropped_past_its_pending_bound(scanned):
    values = skewed_stream(400 + greedy_module._MAX_PENDING + 1, seed=20)
    records = RecordList()
    engine = GreedySplitMemo(records)
    for i, value in enumerate(values[:400]):
        feed(records, engine, value, float(i + 1), i)
    engine.break_indices()
    for i, value in enumerate(values[400:-1], start=400):
        feed(records, engine, value, float(i + 1), i)
    assert len(engine.pending) == greedy_module._MAX_PENDING and engine._memo
    feed(records, engine, values[-1], float(len(values)), len(values) - 1)
    assert engine.pending == () and not engine._memo
    scanned.clear()
    assert engine.break_indices() == reference_break_indices(records)
    through_memo = list(scanned)
    scanned.clear()
    greedy_break_indices(records)
    assert through_memo == scanned


# -- shifted reuse: the certificate, and when it is trusted ---------------------------


@contextmanager
def shifted_reuses():
    """``(lo, hi, entry)`` of every segment the memo takes across an insert.

    A segment ``_recall`` returns is unchanged by every pending insert iff
    it ends below all of them; any other one it returns was shifted."""
    reused = []
    recall = greedy_module._recall

    def spy(records, lo, hi, memo, inserts, exact):
        entry = recall(records, lo, hi, memo, inserts, exact)
        if entry is not None and hi >= min(inserts, default=hi + 1):
            reused.append((lo, hi, entry))
        return entry

    with mock.patch.object(greedy_module, "_recall", spy):
        yield reused


@settings(max_examples=80, deadline=None)
@given(
    st.lists(VALUES, min_size=2, max_size=60),
    st.sampled_from([1.0, 7.0, 1e12]),
    st.integers(1, 3),
)
def test_every_shifted_reuse_has_a_fresh_scans_bits(values, scale, every):
    """Integral weights, searches every ``every`` inserts: each segment the
    memo takes across an insert equals a scan of today's buffers."""
    records = RecordList()
    engine = GreedySplitMemo(records)
    with shifted_reuses() as reused:
        for i, value in enumerate(values):
            feed(records, engine, value, scale * (i + 1), i)
            if i % every == 0:
                reused.clear()
                assert engine.break_indices() == reference_break_indices(records)
                for lo, hi, entry in reused:
                    assert bits(entry) == bits(scan_entry(records, lo, hi))


def certified_segment(records, lo):
    """The widest ``[lo, hi]`` a single candidate settles, ``hi <= n - 3``."""
    for hi in range(len(records) - 3, lo, -1):
        entry = scan_entry(records, lo, hi)
        if entry[1] is not None:
            return hi, entry
    raise AssertionError("no certified segment")


def test_recall_reuses_a_moved_segment_only_on_a_holding_certificate():
    records = records_of([(v, float(i + 1)) for i, v in enumerate(skewed_stream(60, seed=17))])
    a = 5
    b, entry = certified_segment(records, a)
    memo = {(a, b): entry}
    # Below every record: the old [a, b] is [a + 1, b + 1] now.
    assert records.add(0.0, significance=61.0, task_id=60) == 0
    recall = greedy_module._recall
    moved = (a + 1, b + 1)
    assert scan_entry(records, *moved)[1] is not None
    assert recall(records, *moved, memo, [0], True) == entry
    # The prefix sums may have rounded; the kernel settled it; the runner-up
    # lies above the minimum but inside the margin (forged).
    assert recall(records, *moved, memo, [0], False) is None
    assert recall(records, *moved, {(a, b): (entry[0], None)}, [0], True) is None
    best = entry[1][0]
    forged = (entry[0], (best, float(np.nextafter(best, inf))) + entry[1][2:])
    assert recall(records, *moved, {(a, b): forged}, [0], True) is None
    # The margin keeps _scan's guards: an empty bucket's infinite margin and
    # a NaN one (here from T) fail the test, however far the runner-up lies.
    best, second, total, first, last_share = entry[1]
    for sums in ((total, 0.0, last_share), (total, first, inf), (float("nan"), first, last_share)):
        forged = (entry[0], (best, 1e300) + sums)
        assert recall(records, *moved, {(a, b): forged}, [0], True) is None
    # Holding an insert, at its low end, inside or at its high end: dirty.
    for pos in (a + 1, (a + b) // 2 + 1, b + 1):
        assert recall(records, *moved, memo, [pos], True) is None
    # Below an insert: reused as it was, certified or not, exact or not.
    uncertified = {(a, b): (entry[0], None)}
    assert recall(records, a, b, uncertified, [b + 1], False) == (entry[0], None)
    # Latest insert first: [b + 1] in the oldest space left [a, b] alone,
    # and the insert at 0 then moved it.  Oldest first would call it dirty.
    assert recall(records, *moved, memo, [b + 1, 0], True) == entry


@pytest.mark.parametrize("offset, shifted_path", [(1.0, True), (1.5, False)])
def test_restored_store_reuses_shifted_segments_only_under_integral_weights(
    offset, shifted_path
):
    """The engine a restore builds derives exactness from the records it finds:
    a store holding non-integral weights never takes the shifted path, even
    when every later weight is integral."""
    values = skewed_stream(340, seed=16)
    algo = GreedyBucketing(rng=np.random.default_rng(1))
    for i, value in enumerate(values[:300]):
        algo.update(value, significance=i + offset, task_id=i)
    algo.predict()
    restored = GreedyBucketing(rng=np.random.default_rng(1))
    restored.load_state(json.loads(json.dumps(algo.state_dict())))
    assert restored.partition_engine.exact is shifted_path
    with shifted_reuses() as shifted:
        for i, value in enumerate(values[300:], start=300):
            restored.update(value, significance=float(i + 1), task_id=i)
            assert restored.predict() is not None
            assert [b.hi for b in restored.state.buckets] == reference_break_indices(
                restored.records
            )
    assert bool(shifted) is shifted_path


# -- at the depth the service runs at -----------------------------------------------


def deep_stream(shape, n, seed=21):
    """``(value, significance)`` pairs: ``core-hot-greedy``'s three value shapes
    at task-id significances, disk values under exponential-decay weights
    (the memo's inexact-prefix fallback), and an adversarial-significance
    stream."""
    rng = np.random.default_rng([seed, len(shape)])
    sigs = np.arange(1.0, n + 1.0)
    if shape == "memory":
        high = rng.random(n) < 0.3
        values = np.where(high, rng.normal(24000.0, 2000.0, n), rng.normal(6000.0, 800.0, n))
        values = np.clip(values, 100.0, 60000.0)
    elif shape == "cores":
        values = np.clip(rng.lognormal(np.log(2.0), 0.5, n), 0.1, 16.0)
    elif shape in ("disk", "decay"):
        values = np.clip(rng.exponential(3000.0, n), 10.0, 60000.0)
        if shape == "decay":
            sigs = np.array([exponential_decay_significance(t) for t in range(n)])
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
    # reference rescans every one of them from scratch per search.  At
    # ``every=1`` each search follows one insert, the service's
    # record/allocate alternation, where most reuse is of shifted segments.
    [
        ("memory", 20000, 8),
        ("cores", 12000, 8),
        ("disk", 12000, 8),
        ("adversarial", 6000, 12),
        ("memory", 6000, 1),
        ("cores", 6000, 1),
        ("disk", 6000, 1),
        ("decay", 6000, 1),
    ],
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
