# reprolint test fixture: R7 cli-config-drift — clean config half.
from dataclasses import dataclass


@dataclass(frozen=True)
class ExperimentConfig:
    n_tasks: int = 1000
    ramp_up_seconds: float = 600.0
