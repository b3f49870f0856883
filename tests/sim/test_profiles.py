"""Tests for consumption profiles (kill-time semantics)."""

import pytest

from repro.core.resources import CORES, DISK, MEMORY, TIME, ResourceVector
from repro.sim.profiles import (
    InstantPeakProfile,
    LinearRampProfile,
    StepProfile,
)


class TestLinearRampProfile:
    def test_sufficient_allocation_succeeds(self):
        profile = LinearRampProfile()
        verdict = profile.check(
            allocation=ResourceVector.of(cores=2, memory=1000),
            consumption=ResourceVector.of(cores=1, memory=900),
            duration=100.0,
        )
        assert verdict.success
        assert verdict.fraction == 1.0
        assert verdict.observed == ResourceVector.of(cores=1, memory=900)

    def test_exact_allocation_succeeds(self):
        profile = LinearRampProfile()
        verdict = profile.check(
            allocation=ResourceVector.of(memory=900),
            consumption=ResourceVector.of(memory=900),
            duration=10.0,
        )
        assert verdict.success

    def test_kill_at_ramp_crossing(self):
        profile = LinearRampProfile(peak_fraction=1.0)
        verdict = profile.check(
            allocation=ResourceVector.of(memory=500),
            consumption=ResourceVector.of(memory=1000),
            duration=100.0,
        )
        assert not verdict.success
        assert verdict.exhausted == (MEMORY,)
        assert verdict.fraction == pytest.approx(0.5)
        # Observed at kill = the allocation itself.
        assert verdict.observed[MEMORY] == 500.0

    def test_peak_fraction_scales_kill_time(self):
        early = LinearRampProfile(peak_fraction=0.25)
        verdict = early.check(
            allocation=ResourceVector.of(memory=500),
            consumption=ResourceVector.of(memory=1000),
            duration=100.0,
        )
        assert verdict.fraction == pytest.approx(0.125)

    def test_earliest_crossing_wins(self):
        profile = LinearRampProfile(peak_fraction=1.0)
        verdict = profile.check(
            allocation=ResourceVector.of(cores=1, memory=900),
            consumption=ResourceVector.of(cores=4, memory=1000),  # cores cross at 0.25
            duration=100.0,
        )
        assert verdict.exhausted == (CORES,)
        assert verdict.fraction == pytest.approx(0.25)
        # Memory observed at the kill fraction.
        assert verdict.observed[MEMORY] == pytest.approx(250.0)

    def test_time_limit_enforced(self):
        profile = LinearRampProfile()
        verdict = profile.check(
            allocation=ResourceVector.of(memory=2000),
            consumption=ResourceVector.of(memory=1000),
            duration=100.0,
            time_limit=40.0,
        )
        assert verdict.exhausted == (TIME,)
        assert verdict.fraction == pytest.approx(0.4)

    def test_resource_kill_beats_later_time_limit(self):
        profile = LinearRampProfile(peak_fraction=1.0)
        verdict = profile.check(
            allocation=ResourceVector.of(memory=100),
            consumption=ResourceVector.of(memory=1000),
            duration=100.0,
            time_limit=90.0,
        )
        assert verdict.exhausted == (MEMORY,)

    def test_invalid_peak_fraction(self):
        with pytest.raises(ValueError):
            LinearRampProfile(peak_fraction=0.0)
        with pytest.raises(ValueError):
            LinearRampProfile(peak_fraction=1.5)

    def test_detection_floor(self):
        # Tiny allocations are detected quickly but not at exactly t=0.
        profile = LinearRampProfile()
        verdict = profile.check(
            allocation=ResourceVector.of(memory=1e-6),
            consumption=ResourceVector.of(memory=1e6),
            duration=100.0,
        )
        assert 0 < verdict.fraction <= 0.01 + 1e-9


class TestInstantPeakProfile:
    def test_insufficient_allocation_killed_immediately(self):
        profile = InstantPeakProfile()
        verdict = profile.check(
            allocation=ResourceVector.of(memory=500),
            consumption=ResourceVector.of(memory=1000),
            duration=100.0,
        )
        assert not verdict.success
        assert verdict.fraction <= 0.01 + 1e-9

    def test_sufficient_allocation_succeeds(self):
        profile = InstantPeakProfile()
        verdict = profile.check(
            allocation=ResourceVector.of(memory=1000),
            consumption=ResourceVector.of(memory=1000),
            duration=100.0,
        )
        assert verdict.success


class TestStepProfile:
    def test_kill_at_step(self):
        profile = StepProfile(step_fraction=0.6, baseline_fraction=0.1)
        verdict = profile.check(
            allocation=ResourceVector.of(memory=500),
            consumption=ResourceVector.of(memory=1000),
            duration=100.0,
        )
        assert verdict.fraction == pytest.approx(0.6)
        assert verdict.exhausted == (MEMORY,)

    def test_below_baseline_killed_early(self):
        profile = StepProfile(step_fraction=0.6, baseline_fraction=0.5)
        verdict = profile.check(
            allocation=ResourceVector.of(memory=100),  # below 500 baseline
            consumption=ResourceVector.of(memory=1000),
            duration=100.0,
        )
        assert verdict.fraction <= 0.01 + 1e-9

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            StepProfile(step_fraction=0.0)
        with pytest.raises(ValueError):
            StepProfile(baseline_fraction=1.0)

    def test_consumed_at(self):
        profile = StepProfile(step_fraction=0.5, baseline_fraction=0.2)
        assert profile.consumed_at(1000.0, 0.3) == pytest.approx(200.0)
        assert profile.consumed_at(1000.0, 0.7) == pytest.approx(1000.0)


class TestAbsentResourceReadsZero:
    """A resource a vector omits is 0.0 to the verdict, as to ``v[res]``."""

    @pytest.mark.parametrize(
        "profile",
        [LinearRampProfile(), InstantPeakProfile(), StepProfile()],
        ids=["linear", "instant", "step"],
    )
    def test_omitted_limit_is_a_zero_limit(self, profile):
        consumption = ResourceVector.of(cores=1, memory=900, disk=50)
        omitted = profile.check(ResourceVector.of(cores=2, memory=1000), consumption, 100.0)
        zero = profile.check(
            ResourceVector({CORES: 2, MEMORY: 1000, DISK: 0.0}), consumption, 100.0
        )
        assert omitted == zero
        assert omitted.exhausted == (DISK,)
        assert omitted.observed[DISK] == 0.0
        assert DISK in omitted.observed.raw

    def test_omitted_peak_never_kills(self):
        verdict = LinearRampProfile().check(
            ResourceVector.of(cores=2, memory=1000, disk=10),
            ResourceVector.of(memory=900),
            100.0,
        )
        assert verdict.success
        assert verdict.observed == ResourceVector.of(memory=900)
