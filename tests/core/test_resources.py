"""Tests for the resource model."""

import copy
import multiprocessing
import pickle

import pytest

from repro.core.resources import (
    CORES,
    DISK,
    MEMORY,
    PAPER_EXPLORATORY_ALLOCATION,
    PAPER_WORKER_CAPACITY,
    RESOURCES,
    TIME,
    Resource,
    ResourceVector,
    resource,
)


class TestResource:
    def test_predefined_resources_exist(self):
        assert CORES.key == "cores"
        assert MEMORY.unit == "MB"
        assert DISK.unit == "MB"
        assert TIME.unit == "s"

    def test_equality_is_by_key(self):
        assert Resource("cores") == CORES
        assert Resource("cores", unit="whatever") == CORES

    def test_hashable_by_key(self):
        assert len({CORES, Resource("cores"), MEMORY}) == 2

    def test_lookup_by_key(self):
        assert resource("memory") is MEMORY

    def test_unknown_key_raises(self):
        with pytest.raises(KeyError, match="unknown resource"):
            resource("plutonium")

    def test_register_new_resource(self):
        gpus = RESOURCES.register("gpus", unit="devices")
        assert resource("gpus") is gpus
        # Re-registering the same key returns the same object.
        assert RESOURCES.register("gpus", unit="devices") is gpus

    def test_register_conflicting_unit_raises(self):
        RESOURCES.register("fpga_luts", unit="luts")
        with pytest.raises(ValueError, match="already registered"):
            RESOURCES.register("fpga_luts", unit="gates")

    def test_invalid_key_rejected(self):
        with pytest.raises(ValueError):
            Resource("")
        with pytest.raises(ValueError):
            Resource("no spaces")

    def test_one_instance_per_key(self):
        assert Resource("cores") is CORES
        assert Resource("cores", unit="whatever", divisible=False) is CORES
        assert CORES.unit == "cores" and CORES.divisible  # first construction wins
        fresh = Resource("test_unregistered_kind", unit="widgets")
        assert Resource("test_unregistered_kind") is fresh
        with pytest.raises(KeyError):  # interned, but only register() registers
            resource("test_unregistered_kind")

    def test_equality_and_hash_are_identity(self):
        """Regression guard: a Python-level ``__hash__`` here was entered
        492 times per simulated task."""
        assert Resource.__hash__ is object.__hash__
        assert Resource.__eq__ is object.__eq__

    def test_immutable(self):
        with pytest.raises(AttributeError):
            CORES.key = "memory"
        with pytest.raises(AttributeError):
            CORES.unit = "threads"
        with pytest.raises(AttributeError):
            del CORES.key
        with pytest.raises(AttributeError):
            CORES.description = "no __dict__ either"
        assert CORES.key == "cores"

    def test_pickle_and_copy_return_the_singleton(self):
        late = RESOURCES.register("test_late_kind", unit="widgets")
        for res in (CORES, TIME, late):
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(res, protocol)) is res
            assert copy.copy(res) is res
            assert copy.deepcopy(res) is res
        vector = ResourceVector({CORES: 2.0, late: 1.0})
        clone = copy.deepcopy(vector)
        assert clone == vector and clone is not vector
        assert all(a is b for a, b in zip(clone, vector))

    @pytest.mark.slow
    def test_round_trip_through_a_spawn_child(self):
        """What ``run_grid(jobs=N)`` relies on: vectors and ledgers cross
        the process boundary keyed by each side's own singletons —
        including a kind the child never registered."""
        from repro.sim.accounting import Ledger

        late = RESOURCES.register("test_late_kind", unit="widgets")
        vector = ResourceVector({CORES: 0.1 + 0.2, MEMORY: 512.0, late: 3.0})
        ledger = Ledger((CORES, MEMORY, late))
        ledger._consumption[late] = 1.0 / 3.0
        ledger._allocation[late] = 2.0 / 3.0
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(1) as pool:
            child_ok, vector_back, ledger_back = pool.apply(
                _echo_from_child, (vector, ledger)
            )
        assert child_ok
        assert vector_back == vector
        assert [res for res in vector_back] == [CORES, MEMORY, late]
        assert all(a is b for a, b in zip(vector_back, vector))
        assert all(a is b for a, b in zip(ledger_back.resources, ledger.resources))
        assert ledger_back.state_dict() == ledger.state_dict()
        assert ledger_back.awe(late) == ledger.awe(late) == 0.5


def _echo_from_child(vector, ledger):
    """Runs in the spawn child of ``test_round_trip_through_a_spawn_child``."""
    keys = ("cores", "memory", "test_late_kind")
    child_ok = (
        all(res is Resource(key) for res, key in zip(vector, keys))
        and vector[CORES] == 0.1 + 0.2
        and all(res is Resource(key) for res, key in zip(ledger.resources, keys))
        and ledger.awe(Resource("test_late_kind")) == 0.5
    )
    return child_ok, vector, ledger


class TestResourceVector:
    def test_of_constructor_drops_zeros(self):
        v = ResourceVector.of(cores=2, memory=0)
        assert CORES in v
        assert MEMORY not in v
        assert v[MEMORY] == 0.0  # absent means zero

    def test_string_keys_resolve(self):
        v = ResourceVector({"cores": 4})
        assert v[CORES] == 4.0

    def test_kwargs_constructor(self):
        v = ResourceVector(cores=2, memory=512)
        assert v[CORES] == 2 and v[MEMORY] == 512

    def test_negative_component_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            ResourceVector.of(cores=-1)

    def test_nan_component_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            ResourceVector({CORES: float("nan")})

    def test_int_past_float_range_rejected_as_value_error(self):
        for build in (
            lambda: ResourceVector({MEMORY: 10**400}),
            lambda: ResourceVector(memory=10**400),
            lambda: ResourceVector.of(memory=10**400),
        ):
            with pytest.raises(ValueError, match="non-finite memory component"):
                build()

    def test_of_stores_floats(self):
        v = ResourceVector.of(cores=2, memory="0.5", time=7)
        assert v.raw == {CORES: 2.0, MEMORY: 0.5, TIME: 7.0}
        assert all(type(x) is float for x in v.raw.values())

    def test_state_round_trip_and_validation(self):
        v = ResourceVector({CORES: 0.1 + 0.2, MEMORY: 0.0, TIME: 7})
        state = v.state_dict()
        assert state == {"cores": 0.1 + 0.2, "memory": 0.0, "time": 7.0}
        restored = ResourceVector.from_state(state)
        assert restored.raw == v.raw and type(restored.raw) is dict
        assert list(restored.raw) == [CORES, MEMORY, TIME]
        assert all(type(x) is float for x in ResourceVector.from_state({"cores": 2}).raw.values())
        with pytest.raises(KeyError, match="unknown resource 'plutonium'"):
            ResourceVector.from_state({"plutonium": 1.0})
        with pytest.raises(ValueError, match="negative memory component: -1.0"):
            ResourceVector.from_state({"cores": 1.0, "memory": -1})
        with pytest.raises(ValueError, match="NaN cores component"):
            ResourceVector.from_state({"cores": float("nan")})

    def test_fits_within(self):
        usage = ResourceVector.of(cores=2, memory=900)
        limit = ResourceVector.of(cores=4, memory=1000)
        assert usage.fits_within(limit)
        assert not limit.fits_within(usage)

    def test_fits_within_handles_missing_components(self):
        usage = ResourceVector.of(cores=1)
        limit = ResourceVector.of(cores=2, memory=100)
        assert usage.fits_within(limit)
        # A component present in usage but missing from the limit fails.
        assert not ResourceVector.of(disk=1).fits_within(limit)

    def test_exceeded_by(self):
        limit = ResourceVector.of(cores=2, memory=1000)
        usage = ResourceVector.of(cores=3, memory=500)
        assert limit.exceeded_by(usage) == (CORES,)

    def test_exceeded_by_boundary_is_not_exceeding(self):
        limit = ResourceVector.of(cores=2)
        assert limit.exceeded_by(ResourceVector.of(cores=2)) == ()

    def test_add_and_subtract(self):
        a = ResourceVector.of(cores=2, memory=100)
        b = ResourceVector.of(cores=1, memory=300)
        assert (a + b)[CORES] == 3
        # Subtraction clamps at zero.
        assert (a - b)[MEMORY] == 0.0

    def test_scale(self):
        v = ResourceVector.of(cores=2) * 2.5
        assert v[CORES] == 5.0
        with pytest.raises(ValueError):
            v * -1

    def test_componentwise_max_min(self):
        a = ResourceVector.of(cores=1, memory=800)
        b = ResourceVector.of(cores=4, memory=200)
        assert a.componentwise_max(b) == ResourceVector.of(cores=4, memory=800)
        assert a.componentwise_min(b) == ResourceVector.of(cores=1, memory=200)

    def test_replace_and_restrict(self):
        v = ResourceVector.of(cores=1, memory=100, disk=50)
        assert v.replace(CORES, 8)[CORES] == 8
        restricted = v.restrict([CORES, MEMORY])
        assert DISK not in restricted

    def test_equality_ignores_explicit_zeros(self):
        assert ResourceVector({CORES: 1.0, MEMORY: 0.0}) == ResourceVector({CORES: 1.0})

    def test_hash_consistent_with_equality(self):
        a = ResourceVector({CORES: 1.0, MEMORY: 0.0})
        b = ResourceVector({CORES: 1.0})
        assert hash(a) == hash(b)

    def test_is_zero(self):
        assert ResourceVector().is_zero()
        assert not ResourceVector.of(cores=1).is_zero()

    def test_paper_constants(self):
        assert PAPER_WORKER_CAPACITY[CORES] == 16
        assert PAPER_WORKER_CAPACITY[MEMORY] == 64_000
        assert PAPER_EXPLORATORY_ALLOCATION == ResourceVector.of(
            cores=1, memory=1000, disk=1000
        )

    def test_mapping_protocol(self):
        v = ResourceVector.of(cores=2, memory=100)
        assert len(v) == 2
        assert set(v) == {CORES, MEMORY}
        assert dict(v)[CORES] == 2.0

    def test_raw_exposes_components(self):
        v = ResourceVector.of(cores=2)
        assert v.raw == {CORES: 2.0}
