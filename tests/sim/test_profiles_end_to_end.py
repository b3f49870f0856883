"""Kill-model profiles through the full simulator: price of failure."""


from repro.core.allocator import AllocatorConfig
from repro.core.resources import MEMORY, ResourceVector
from repro.sim.manager import SimulationConfig, WorkflowManager
from repro.sim.pool import PoolConfig
from repro.sim.profiles import InstantPeakProfile, LinearRampProfile, StepProfile
from repro.workflows.spec import TaskSpec, WorkflowSpec


def spiky_workflow(n=24):
    """One small task first, then larger ones: with min_records=1, the
    larger tasks fail their learned first allocation and retry."""
    tasks = [
        TaskSpec(0, "proc", ResourceVector.of(cores=1, memory=200, disk=50), 30.0)
    ]
    for i in range(1, n):
        tasks.append(
            TaskSpec(i, "proc", ResourceVector.of(cores=1, memory=2000, disk=50), 30.0)
        )
    return WorkflowSpec("spiky", tasks)


def run_with(profile):
    manager = WorkflowManager(
        spiky_workflow(),
        SimulationConfig(
            allocator=AllocatorConfig(
                algorithm="max_seen",
                min_records=1,
                seed=1,
            ),
            pool=PoolConfig(
                n_workers=1,
                capacity=ResourceVector.of(cores=8, memory=16000, disk=16000),
            ),
            profile=profile,
        ),
    )
    return manager.run()


class TestProfilePricing:
    def test_all_profiles_complete_the_workflow(self):
        for profile in (
            LinearRampProfile(peak_fraction=0.25),
            LinearRampProfile(peak_fraction=1.0),
            InstantPeakProfile(),
            StepProfile(step_fraction=0.8, baseline_fraction=0.05),
        ):
            result = run_with(profile)
            assert result.ledger.n_tasks == 24
            assert result.ledger.identity_holds()

    def test_failure_price_ordering(self):
        """Instant kills are cheapest, late-step kills most expensive —
        the failed-allocation waste must order accordingly on the same
        workload and allocator."""
        instant = run_with(InstantPeakProfile())
        early = run_with(LinearRampProfile(peak_fraction=0.25))
        late = run_with(StepProfile(step_fraction=0.9, baseline_fraction=0.05))
        f_instant = instant.ledger.waste(MEMORY).failed_allocation
        f_early = early.ledger.waste(MEMORY).failed_allocation
        f_late = late.ledger.waste(MEMORY).failed_allocation
        assert f_instant > 0  # failures do occur
        assert f_instant < f_early < f_late

    def test_awe_tracks_failure_price(self):
        instant = run_with(InstantPeakProfile())
        late = run_with(StepProfile(step_fraction=0.9, baseline_fraction=0.05))
        assert instant.ledger.awe(MEMORY) > late.ledger.awe(MEMORY)

    def test_identical_failure_counts_across_profiles(self):
        """The profile prices failures; it must not change *which*
        allocations fail (that is the allocator's doing)."""
        a = run_with(InstantPeakProfile())
        b = run_with(LinearRampProfile(peak_fraction=1.0))
        assert a.n_failed_attempts == b.n_failed_attempts
