"""Differential: the block-layout RecordList vs five plain 1-D buffers.

:class:`~repro.core.records.RecordList` keeps its five columns as rows
of one ``(5, size)`` block and mutates them with 2-D slice operations;
the read paths see the rows through views built from the live block
(``_rows()`` for the four float rows, the ``int64`` view ``_ints`` for
the task ids).  :class:`FiveBuffers` below is the layout it replaced —
five separately allocated 1-D buffers, one numpy call per buffer per
step — kept here as the oracle.  Both perform the same IEEE additions on
the same operands, so after every mutation the live prefix of every row
must be *byte*-identical, the returned position equal (``None`` from
both when they compacted), and ``state_dict() -> from_state() ->
state_dict()`` a fixed point.
"""

import bisect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.records import (
    _BLOCK_MOVE_MAX,
    _MIN_BUFFER,
    DECAY_SLACK,
    RecordList,
    ResourceRecord,
)
from tests.core.records_reference import LegacyRecordList

ROW_NAMES = ("values", "significances", "sig_prefix", "sigval_prefix", "task_ids")


def _read_rows(store: RecordList):
    """The five rows as the read paths see them, over the whole block."""
    return (*store._rows(), store._ints[4])


class FiveBuffers:
    """A bounded sorted record store on five independent 1-D buffers."""

    def __init__(self, capacity=None):
        self.capacity = capacity
        self.v = np.empty(32)
        self.s = np.empty(32)
        self.sp = np.empty(32)
        self.svp = np.empty(32)
        self.t = np.empty(32, dtype=np.int64)
        self.n = 0

    def live(self):
        return tuple(b[: self.n] for b in (self.v, self.s, self.sp, self.svp, self.t))

    def add(self, value, significance, task_id):
        pos = self._insert(value, significance, task_id)
        if self.capacity is not None and self.n > self.capacity:
            self._evict(max(1, self.capacity - int(self.capacity * DECAY_SLACK)))
            return None
        return pos

    def _insert(self, value, significance, task_id):
        n = self.n
        if n == self.v.size:
            for name in ("v", "s", "sp", "svp", "t"):
                old = getattr(self, name)
                grown = np.empty(2 * old.size, dtype=old.dtype)
                grown[:n] = old[:n]
                setattr(self, name, grown)
        lo = int(np.searchsorted(self.v[:n], value, side="left"))
        hi = int(np.searchsorted(self.v[:n], value, side="right"))
        pos = lo + int(np.searchsorted(self.s[lo:hi], significance, side="right"))
        for buf in (self.v, self.s, self.t, self.sp, self.svp):
            buf[pos + 1 : n + 1] = buf[pos:n]
        sigval = significance * value
        self.v[pos] = value
        self.s[pos] = significance
        self.t[pos] = task_id
        self.sp[pos] = (self.sp[pos - 1] if pos > 0 else 0.0) + significance
        self.svp[pos] = (self.svp[pos - 1] if pos > 0 else 0.0) + sigval
        self.sp[pos + 1 : n + 1] += significance
        self.svp[pos + 1 : n + 1] += sigval
        self.n = n + 1
        return pos

    def _evict(self, target):
        n = self.n
        excess = n - target
        keep = np.ones(n, dtype=bool)
        keep[np.argsort(self.s[:n], kind="stable")[:excess]] = False
        for buf in (self.v, self.s, self.t):
            buf[: n - excess] = buf[:n][keep]
        self.n = n - excess
        self._rebuild()

    def _rebuild(self):
        n = self.n
        np.cumsum(self.s[:n], out=self.sp[:n])
        np.cumsum(self.s[:n] * self.v[:n], out=self.svp[:n])


def _assert_same_bytes(store: RecordList, oracle: FiveBuffers) -> None:
    assert len(store) == oracle.n
    for name, row, expected in zip(ROW_NAMES, _read_rows(store), oracle.live()):
        got = row[: oracle.n]
        assert got.dtype == expected.dtype, name
        assert got.tobytes() == expected.tobytes(), name


def _assert_views_of_one_allocation(store: RecordList) -> None:
    block = store._block
    assert block.base is None and block.shape[0] == 5
    assert store._ints.base is block and store._ints.shape == block.shape
    for row, (name, buf) in enumerate(zip(ROW_NAMES, _read_rows(store))):
        assert buf.base is block, f"{name} is not a view of the live block"
        assert np.shares_memory(buf, block[row]) and not buf.flags.owndata


# Few distinct values and significances: most inserts land among equal
# values, many among equal (value, significance) keys.
_stream = st.lists(
    st.tuples(
        st.sampled_from([0.0, 1.0, 1.0, 2.5, 2.5, 7.0, 1e6])
        | st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False),
        st.sampled_from([1.0, 1.0, 2.0, 7.5])
        | st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False),
        st.integers(min_value=-1, max_value=2**62),
    ),
    min_size=140,  # unbounded: past the 32 -> 64 -> 128 -> 256 reallocations
    max_size=300,
)


@pytest.mark.parametrize("capacity", [None, 9, 64])
@settings(max_examples=15, deadline=None)
@given(stream=_stream)
def test_block_store_matches_five_buffer_oracle(capacity, stream):
    store = RecordList(capacity=capacity)
    oracle = FiveBuffers(capacity=capacity)
    sizes = {store._block.shape[1]}
    for value, significance, task_id in stream:
        before = len(store)
        pos = store.add(value, significance, task_id)
        assert pos == oracle.add(value, significance, task_id)
        assert (pos is None) == (len(store) <= before)
        _assert_same_bytes(store, oracle)
        state = store.state_dict()
        assert RecordList.from_state(state).state_dict() == state
        sizes.add(store._block.shape[1])
    if capacity is None:
        assert len(sizes) >= 4  # three growth boundaries crossed
    _assert_views_of_one_allocation(store)


def test_runs_longer_than_the_2d_bound_move_row_by_row_to_the_same_bytes():
    # Past _BLOCK_MOVE_MAX columns the shift stops being one buffered
    # 2-D copy; both sides of the bound.
    depth = _BLOCK_MOVE_MAX + 40
    rng = np.random.default_rng(7)
    store = RecordList(capacity=depth + 20)
    oracle = FiveBuffers(capacity=depth + 20)
    for i in range(depth):  # ascending: every preload insert is an append
        value = float(i // 3)
        assert store.add(value, 1000.0 + i, i) == oracle.add(value, 1000.0 + i, i)
    _assert_same_bytes(store, oracle)
    # Right shifts of ~depth, ~depth/2 and a few columns; the 21st takes
    # the store over capacity and the batch compaction drops the short
    # shifts back under the bound.
    compactions = 0
    for i in range(60):
        value = float(rng.choice([0.0, depth // 6, depth // 3 - 1]))
        significance = float(rng.integers(1, 5))
        pos = store.add(value, significance, -i)
        assert pos == oracle.add(value, significance, -i)
        compactions += pos is None
        _assert_same_bytes(store, oracle)
    capacity = depth + 20
    assert compactions == 1
    assert len(store) == capacity - int(capacity * DECAY_SLACK) + 39


def test_buffer_names_are_views_of_one_allocation_after_every_reallocation():
    rng = np.random.default_rng(3)
    grown = RecordList()
    stale = grown._block
    for i in range(100):  # two reallocations
        grown.add(float(rng.integers(0, 20)), float(i + 1), i)
    assert grown._block is not stale
    restored = RecordList.from_state(grown.state_dict())
    bulk = RecordList.from_arrays(
        rng.uniform(0, 50, 500), rng.uniform(1, 5, 500), np.arange(500)
    )
    for store in (grown, restored, bulk):
        _assert_views_of_one_allocation(store)
        # A write through each name lands in the block the others read.
        n = len(store)
        pos = store.add(0.0, 0.5, 77)
        assert pos == 0 and len(store) == n + 1
        assert store._block[0, 0] == 0.0 and store._block[1, 0] == 0.5
        assert store._block[2, 0] == 0.5 and store._block[3, 0] == 0.0
        assert store._ints[4, 0] == 77 and store.task_ids[0] == 77


def test_a_list_only_inserted_into_holds_no_row_views():
    """Inserts index the block: no row view exists until a read path asks
    for one, and a reallocation drops the ones a read built."""
    store = RecordList()
    for i in range(3):
        store.add(float(i), 1.0, i)
    arrays = [getattr(store, name) for name in RecordList.__slots__]
    assert [a for a in arrays if isinstance(a, np.ndarray)] == [store._block, store._ints]
    assert store._row_views is None
    store.sig_sum(0, 2)  # a read path
    rows = store._rows()
    assert store._rows() is rows and rows[0].base is store._block
    store.add(9.0, 1.0, 3)  # fills the 4-column block: no reallocation yet
    assert store._rows() is rows
    store.add(10.0, 1.0, 4)  # reallocates
    assert store._row_views is None
    assert store._rows()[0].base is store._block


def test_task_ids_survive_shifts_through_the_float_block():
    # -1 and 2**62 are a NaN and a huge finite number when read as
    # float64: the shift must move their bits, never their "value".
    ids = [-1, 0, 2**62, -(2**62), 2**63 - 1]
    store = RecordList()
    for i, task_id in enumerate(ids):
        store.add(1000.0 + i, 1.0, task_id)
    for i in range(70):  # shift all five right 70 times, across two reallocations
        store.add(float(i % 7), 1.0 + i, 100 + i)
    assert store.task_ids[-5:].tolist() == ids
    store = RecordList.from_state(store.state_dict())
    store.add(0.0, 0.25, 5)  # and once more after a restore
    assert store.task_ids[-5:].tolist() == ids
    assert [r.task_id for r in store[-5:]] == ids
    # Compaction compresses left through the same block.
    bounded = RecordList(capacity=5)
    for i, task_id in enumerate(ids):
        bounded.add(1000.0 + i, 10.0 + i, task_id)
    bounded.add(5000.0, 1.0, 9)  # lowest significance: evicted again at once
    bounded.add(1.0, 99.0, 7)  # evicts ids[0]; the rest shift left then right
    assert bounded.task_ids.tolist() == [7] + ids[1:]


def test_growth_from_the_first_block_matches_the_reference_at_every_step():
    """From its 4-column first block through every doubling to 1,100
    records, the store equals the seed's object list after each insert:
    the same position and all five rows bit for bit.  Small integers
    keep every prefix sum exact, so the incremental sums and the
    reference's fresh ``cumsum`` must agree to the bit, not to a
    tolerance; values repeat, so the tie-break is exercised too."""
    rng = np.random.default_rng(11)
    store, reference = RecordList(), LegacyRecordList()
    assert _MIN_BUFFER == 4 and store.nbytes == 5 * 8 * 4
    sizes = set()
    for task_id in range(1_100):
        value = float(rng.integers(0, 400))
        significance = float(rng.integers(1, 8))
        record = ResourceRecord(value, significance, task_id)
        expected_pos = bisect.bisect_right(reference._records, record)
        reference.append(record)
        assert store.add(value, significance, task_id) == expected_pos
        n = len(store)
        columns = store.nbytes // (5 * 8)
        assert columns == 4 * 2 ** max(0, (n - 1).bit_length() - 2)
        sizes.add(columns)
        for ours, theirs in (
            (store.values, reference.values),
            (store.significances, reference.significances),
            (store.sig_prefix, reference.sig_prefix),
            (store.sigval_prefix, reference.sigval_prefix),
            (store.task_ids, np.array([r.task_id for r in reference], dtype=np.int64)),
        ):
            assert ours.tobytes() == theirs.tobytes()
    assert sorted(sizes) == [4 * 2**k for k in range(10)]  # 4 .. 2048
