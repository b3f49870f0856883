# reprolint test fixture: R7 cli-config-drift — offending config half.
# The offences are in r7_bad_cli.py; this half declares the fields.
from dataclasses import dataclass


@dataclass(frozen=True)
class ExperimentConfig:
    n_tasks: int = 1000
