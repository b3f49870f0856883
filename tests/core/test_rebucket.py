"""The vectorized candidate mapping of Exhaustive Bucketing.

:func:`evenly_spaced_break_indices` maps all ``k - 1`` candidate values
with one ``searchsorted``; it must return what the one-candidate-at-a-time
loop of Section IV-D returns.
"""

import numpy as np
import pytest

from repro.core.exhaustive import evenly_spaced_break_indices
from repro.core.records import RecordList


class TestVectorizedCandidateMapping:
    """evenly_spaced_break_indices: one searchsorted == the old loop."""

    @staticmethod
    def _loop_reference(records, k):
        n = len(records)
        last = n - 1
        if k == 1:
            return [last]
        v_max = float(records.values[last])
        ends = []
        for i in range(1, k):
            candidate_value = v_max * i / k
            idx = records.index_below(candidate_value)
            if idx is None or idx >= last:
                continue
            if not ends or idx > ends[-1]:
                ends.append(idx)
        ends.append(last)
        return ends

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_loop_reference(self, seed):
        rng = np.random.default_rng(seed)
        records = RecordList()
        for i in range(int(rng.integers(1, 80))):
            records.add(
                float(rng.uniform(0.0, 1000.0)),
                significance=float(rng.uniform(0.1, 50.0)),
                task_id=i,
            )
        for k in range(1, 15):
            assert evenly_spaced_break_indices(records, k) == self._loop_reference(
                records, k
            )

    def test_identical_values_collapse_to_single_bucket(self):
        records = RecordList()
        for i in range(10):
            records.add(42.0, significance=float(i + 1), task_id=i)
        for k in range(1, 6):
            assert evenly_spaced_break_indices(records, k) == [9]
