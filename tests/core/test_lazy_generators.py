"""Generators built on first draw decide like eager ones.

Only the bucketing algorithms draw, and only they take an ``rng``.  The
allocator hands each (category, resource) one of them an ``int`` child
seed; the algorithm counts its draws, writes ``[seed, draws]`` to its
snapshot and builds ``np.random.default_rng(seed)`` (advanced past the
counted draws) only when it next draws.  :class:`EagerAllocator` below
builds every algorithm with a ready ``Generator`` from the same child
seed, as the allocator once did; the differential drives both through
random ``observe`` / ``allocate`` / ``allocate_retry`` / restore
sequences and requires the same responses after every step, and the same
state once each ``[seed, draws]`` is replaced by the PCG64 state that
many draws from the seed reach (:mod:`tests.core.format1`).
"""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import CheckpointError, rng_numbers, rng_state, state_digest
from repro.core.allocator import (
    AllocatorConfig,
    TaskOrientedAllocator,
    _build_algorithm,
    _init_parameters,
)
from repro.core.base import ALGORITHM_REGISTRY, make_algorithm
from repro.core.resources import CORES, MEMORY, ResourceVector
from tests.core.format1 import algorithm_v1, allocator_v1


class EagerAllocator(TaskOrientedAllocator):
    """Every algorithm gets ``np.random.default_rng(child seed)`` at creation."""

    def _make_algorithm(self, res):
        seed = int(self._rng.integers(2**63))
        kwargs = {**self._config.algorithm_kwargs, "rng": np.random.default_rng(seed)}
        return _build_algorithm(replace(self._config, algorithm_kwargs=kwargs), res, self._rng)


def _config(algorithm):
    return AllocatorConfig(
        algorithm=algorithm, seed=5, min_records=2
    )


def _draws(algorithm):
    return "rng" in _init_parameters(ALGORITHM_REGISTRY[algorithm])


#: The registered algorithms that take an ``rng``: the two that draw.
DRAWING = sorted(name for name in ALGORITHM_REGISTRY if _draws(name))


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


@pytest.mark.parametrize("algorithm", DRAWING)
@settings(max_examples=25, deadline=None)
@given(steps=_STEPS)
def test_lazy_generators_match_eager_ones(algorithm, steps):
    lazy = TaskOrientedAllocator(_config(algorithm))
    eager = EagerAllocator(_config(algorithm))
    for task_id, step in enumerate(steps, start=1):
        got, lazy = _step(lazy, step, task_id)
        want, eager = _step(eager, step, task_id)
        assert got == want
        assert json.dumps(allocator_v1(lazy.state_dict())) == json.dumps(
            allocator_v1(eager.state_dict())
        )
        assert lazy.digest() == state_digest(lazy.state_dict())


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
        [-1, 0],
        [3],
        [3, 0, 0],
        [3, -1],
        [3, 2**64],
        [3.0, 0],
        [True, 0],
        [3, None],
    ],
)
def test_a_bad_rng_state_is_refused_at_restore_not_at_the_first_draw(rng):
    """The same codec guards an algorithm's generator and the allocator's
    master RNG: both refuse the damage with ``CheckpointError``, and a
    ``[seed, draws]`` pair is refused unless both are ints in range."""
    algo = make_algorithm("exhaustive_bucketing", rng=3)
    state = algo.state_dict()
    with pytest.raises(CheckpointError):
        make_algorithm("exhaustive_bucketing", rng=3).load_state({**state, "rng": rng})
    for algorithm in ("exhaustive_bucketing", "min_waste"):
        alloc = TaskOrientedAllocator(_config(algorithm))
        alloc.allocate("a", 1)
        saved = alloc.state_dict()
        with pytest.raises(CheckpointError):
            TaskOrientedAllocator(alloc.config).load_state({**saved, "rng": rng})


def _peaks(task_id):
    return ResourceVector.of(cores=1 + task_id % 3, memory=300.0 * task_id, disk=40.0 + task_id)


@pytest.mark.parametrize("algorithm", sorted(ALGORITHM_REGISTRY))
def test_an_algorithm_takes_an_rng_only_if_it_draws(algorithm):
    """Every algorithm that accepts ``rng`` builds its generator once a
    category past ``min_records`` allocates; one that does not draw
    takes no seed, writes no ``"rng"`` and costs the master RNG no draw."""
    alloc = TaskOrientedAllocator(_config(algorithm))
    for task_id in (1, 2):
        alloc.observe("a", _peaks(task_id), task_id=task_id)
    alloc.allocate("a", 3)
    draws = _draws(algorithm)
    for res in alloc.config.resources:
        algo = alloc.algorithm("a", res)
        if draws:
            assert algo._rng_built is not None
        assert ("rng" in algo.state_dict()) is draws
    untouched = rng_state(rng_numbers(np.random.default_rng(5).bit_generator.state))
    assert (alloc.state_dict()["rng"] == untouched) is not draws


#: sha256 of the master RNG and the category entries below, as format 1
#: wrote them (every algorithm then took an ``rng``, and the drawing
#: algorithms' bytes did not move when the other five stopped taking one).
_BUCKETING_BYTES = {
    "exhaustive_bucketing": "d91963798ecb5d570055920e6bc9b3b39b939a2cdae6adb9cc9f9334ed622420",
    "greedy_bucketing": "b50e8d194e2b3eec55f3b39c65411e79a103eebea8b0e8f65ed928fc98bc1d94",
}


def _pinned_run(algorithm):
    alloc = TaskOrientedAllocator(_config(algorithm))
    alloc.allocate("quiet", 0)
    for task_id in range(1, 7):
        alloc.observe("a", _peaks(task_id), task_id=task_id)
        alloc.allocate("a", 100 + task_id)
    restored = TaskOrientedAllocator(alloc.config)
    restored.load_state(json.loads(json.dumps(alloc.state_dict())))
    restored.allocate("a", 200)
    return restored


@pytest.mark.parametrize("algorithm", DRAWING)
def test_bucketing_snapshot_entries_keep_their_bytes(algorithm):
    """The format-1 form of the state holds the bytes format 1 wrote, and
    loaded as a format-1 snapshot it continues exactly as the run does."""
    run = _pinned_run(algorithm)
    v1 = allocator_v1(run.state_dict())
    written = json.dumps([v1["rng"], v1["categories"]])
    assert hashlib.sha256(written.encode()).hexdigest() == _BUCKETING_BYTES[algorithm]

    loaded = TaskOrientedAllocator(run.config)
    loaded.load_state(json.loads(json.dumps(v1)))
    assert json.dumps(allocator_v1(loaded.state_dict())) == json.dumps(v1)
    for task_id in range(300, 320):
        assert loaded.allocate("a", task_id) == run.allocate("a", task_id)
        previous = run.allocate("quiet", task_id)
        assert loaded.allocate("quiet", task_id) == previous
        for res in (CORES, MEMORY):
            assert loaded.allocate_retry("a", task_id, previous, previous, (res,)) == (
                run.allocate_retry("a", task_id, previous, previous, (res,))
            )
        peaks = _peaks(task_id % 11 + 1)
        loaded.observe("quiet", peaks, task_id=task_id)
        run.observe("quiet", peaks, task_id=task_id)
    # A format-1 generator is written back in its own form once built.
    assert allocator_v1(loaded.state_dict()) == allocator_v1(run.state_dict())


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
    assert lazy.state_dict()["rng"] == [42, 20] and lazy._draws == 20
    assert algorithm_v1(lazy.state_dict()) == algorithm_v1(eager.state_dict())


@pytest.mark.parametrize("algorithm", DRAWING)
def test_a_digest_of_never_drawn_generators_builds_no_pcg64(algorithm, monkeypatch):
    """Snapshots and digests write ``[seed, draws]``: no seeding runs for
    a generator that has not drawn, nor for one that has."""
    alloc = TaskOrientedAllocator(_config(algorithm))
    for category in ("a", "b", "c"):
        alloc.observe(category, _peaks(1), task_id=1)
        alloc.allocate(category, 2)  # exploring: no draw

    restored = TaskOrientedAllocator(alloc.config)  # its master RNG is seeded here

    def refuse(*args, **kwargs):
        raise AssertionError("a snapshot seeded a generator")

    monkeypatch.setattr(np.random, "PCG64", refuse)
    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    alloc.digest()
    state = alloc.state_dict()
    assert all(
        entry["rng"][1] == 0
        for saved in state["categories"].values()
        for entry in saved["algorithms"].values()
    )
    assert _unbuilt(alloc) == [True] * 9
    restored.load_state(json.loads(json.dumps(state)))
    assert restored.digest() == alloc.digest()


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("update"), st.integers(1, 40).map(lambda v: 50.0 * v)),
        st.tuples(st.just("predict")),
        # Floors at and above the largest record find no eligible bucket,
        # or one: such a retry draws nothing.
        st.tuples(st.just("retry"), st.integers(0, 45).map(lambda v: 50.0 * v)),
    ),
    min_size=1,
    max_size=60,
)


def _apply(algo, op):
    if op[0] == "update":
        algo.update(op[1], significance=float(algo.n_records + 1), task_id=algo.n_records)
        return None
    if op[0] == "predict":
        return algo.predict()
    return algo.predict_retry(op[1], op[1])


@pytest.mark.parametrize("algorithm", DRAWING)
@settings(max_examples=40, deadline=None)
@given(ops=_OPS, cut=st.integers(0, 59))
def test_a_restore_at_any_op_continues_the_draws(algorithm, ops, cut):
    """Snapshot and restore after any op — a draw, a retry that drew
    nothing, an update: the restored algorithm gives the uninterrupted
    run's answers and draw counts, and its ``[seed, draws]`` is the
    state the eager generator reached."""
    cut = min(cut, len(ops))
    whole = make_algorithm(algorithm, rng=9)
    eager = make_algorithm(algorithm, rng=np.random.default_rng(9))
    resumed = make_algorithm(algorithm, rng=9)
    for op in ops[:cut]:
        _apply(resumed, op)
    saved = json.loads(json.dumps(resumed.state_dict()))
    resumed = make_algorithm(algorithm, rng=9)
    resumed.load_state(saved)
    assert resumed._draws == saved["rng"][1]
    for i, op in enumerate(ops):
        want = _apply(whole, op)
        assert _apply(eager, op) == want
        if i >= cut:
            assert _apply(resumed, op) == want
            assert resumed._draws == whole._draws
    assert algorithm_v1(whole.state_dict()) == algorithm_v1(eager.state_dict())
    assert resumed.state_dict() == whole.state_dict()

