"""Generators built on first draw decide and serialize like eager ones.

The allocator hands each (category, resource) algorithm an ``int``
child seed, and the algorithm builds ``np.random.default_rng(seed)``
only when it first draws; until then ``state_dict()`` writes the state
that generator would have, and ``load_state()`` keeps a restored PCG64
state as four numbers.  :class:`EagerAllocator` below builds every
algorithm with a ready ``Generator`` from the same child seed, as the
allocator did before; the differential drives both through random
``observe`` / ``allocate`` / ``allocate_retry`` / restore sequences and
requires the same responses, ``state_dict()`` bytes and digests after
every step.
"""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import CheckpointError
from repro.core.allocator import (
    AllocatorConfig,
    ExploratoryConfig,
    TaskOrientedAllocator,
    _build_algorithm,
)
from repro.core.base import ALGORITHM_REGISTRY, make_algorithm
from repro.core.resources import CORES, MEMORY, ResourceVector


class EagerAllocator(TaskOrientedAllocator):
    """Every algorithm gets ``np.random.default_rng(child seed)`` at creation."""

    def _make_algorithm(self, res):
        seed = int(self._rng.integers(2**63))
        kwargs = {**self._config.algorithm_kwargs, "rng": np.random.default_rng(seed)}
        return _build_algorithm(replace(self._config, algorithm_kwargs=kwargs), res, self._rng)


def _config(algorithm):
    return AllocatorConfig(
        algorithm=algorithm, seed=5, exploratory=ExploratoryConfig(min_records=2)
    )


_CATEGORIES = st.sampled_from(["a", "b", "c"])
_PEAKS = st.builds(
    lambda cores, memory, disk: ResourceVector.of(cores=cores, memory=memory, disk=disk),
    st.integers(1, 16).map(float),
    st.floats(50.0, 60_000.0),
    st.floats(10.0, 60_000.0),
)
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("observe"), _CATEGORIES, _PEAKS),
        st.tuples(st.just("allocate"), _CATEGORIES),
        st.tuples(st.just("retry"), _CATEGORIES, st.sampled_from([CORES, MEMORY])),
        st.tuples(st.just("restore")),
    ),
    max_size=40,
)


def _step(alloc, step, task_id):
    """Apply one step; returns the response and the allocator to go on with."""
    kind = step[0]
    if kind == "observe":
        alloc.observe(step[1], step[2], task_id=task_id)
        return None, alloc
    if kind == "allocate":
        return alloc.allocate(step[1], task_id).state_dict(), alloc
    if kind == "retry":
        previous = alloc.allocate(step[1], task_id)
        grown = alloc.allocate_retry(step[1], task_id, previous, previous, (step[2],))
        return [previous.state_dict(), grown.state_dict()], alloc
    fresh = type(alloc)(alloc.config)
    fresh.load_state(json.loads(json.dumps(alloc.state_dict())))
    return None, fresh


@pytest.mark.parametrize("algorithm", sorted(ALGORITHM_REGISTRY))
@settings(max_examples=25, deadline=None)
@given(steps=_STEPS)
def test_lazy_generators_match_eager_ones(algorithm, steps):
    lazy = TaskOrientedAllocator(_config(algorithm))
    eager = EagerAllocator(_config(algorithm))
    for task_id, step in enumerate(steps, start=1):
        got, lazy = _step(lazy, step, task_id)
        want, eager = _step(eager, step, task_id)
        assert got == want
        assert json.dumps(lazy.state_dict()) == json.dumps(eager.state_dict())
        assert lazy.digest() == eager.digest()


def _unbuilt(alloc):
    return [
        alloc.algorithm(category, res)._rng_built is None
        for category in alloc.categories()
        for res in alloc.config.resources
    ]


def test_a_restored_category_never_drawn_from_keeps_no_generator():
    """Snapshot bytes come back unchanged from a restore that builds no
    generator; the first draw after it continues the saved stream."""
    alloc = TaskOrientedAllocator(_config("exhaustive_bucketing"))
    peaks = ResourceVector.of(cores=2, memory=900.0, disk=40.0)
    for task_id in range(1, 4):
        alloc.observe("deep", peaks.replace(MEMORY, 300.0 * task_id), task_id=task_id)
    alloc.observe("shallow", peaks, task_id=9)
    alloc.allocate("deep", 10)  # draws: "deep" builds its generators
    assert _unbuilt(alloc) == [False] * 3 + [True] * 3
    saved = json.dumps(alloc.state_dict())

    restored = TaskOrientedAllocator(alloc.config)
    restored.load_state(json.loads(saved))
    assert _unbuilt(restored) == [True] * 6
    assert json.dumps(restored.state_dict()) == saved
    assert restored.digest() == alloc.digest()
    assert _unbuilt(restored) == [True] * 6

    assert restored.allocate("deep", 11) == alloc.allocate("deep", 11)
    assert restored.allocate("shallow", 12) == alloc.allocate("shallow", 12)
    assert restored.digest() == alloc.digest()


def _pcg64(state=1, inc=1, **extra):
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, **extra}


@pytest.mark.parametrize(
    "rng",
    [
        {"bit_generator": "MT19937", "state": {"key": [], "pos": 0}},
        _pcg64(state=-1, has_uint32=0, uinteger=0),
        _pcg64(inc=2**128, has_uint32=0, uinteger=0),
        _pcg64(has_uint32=0),
        _pcg64(state=1.0, has_uint32=0, uinteger=0),
        _pcg64(has_uint32=2, uinteger=0),
        "PCG64",
    ],
)
def test_a_bad_rng_state_is_refused_at_restore_not_at_the_first_draw(rng):
    algo = make_algorithm("exhaustive_bucketing", rng=3)
    state = algo.state_dict()
    with pytest.raises(CheckpointError):
        make_algorithm("exhaustive_bucketing", rng=3).load_state({**state, "rng": rng})


@pytest.mark.parametrize("rng", [-1, True, 1.5, "3"])
def test_a_bad_seed_is_refused_at_construction(rng):
    with pytest.raises(ValueError, match="rng must be an integer >= 0"):
        make_algorithm("greedy_bucketing", rng=rng)


def test_an_int_seed_draws_what_its_generator_would():
    lazy = make_algorithm("greedy_bucketing", rng=42)
    eager = make_algorithm("greedy_bucketing", rng=np.random.default_rng(42))
    for task_id, value in enumerate([100.0, 120.0, 900.0, 950.0, 4000.0], start=1):
        lazy.update(value, significance=task_id, task_id=task_id)
        eager.update(value, significance=task_id, task_id=task_id)
    assert lazy._rng_built is None
    assert [lazy.predict() for _ in range(20)] == [eager.predict() for _ in range(20)]
    assert lazy.state_dict() == eager.state_dict()
