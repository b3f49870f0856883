"""repro — Adaptive task-oriented resource allocation for dynamic workflows.

A from-scratch reproduction of *"Adaptive Task-Oriented Resource Allocation
for Large Dynamic Workflows on Opportunistic Resources"* (Phung & Thain,
IPDPS 2024).

The package is organized as:

``repro.core``
    The paper's primary contribution: the Greedy Bucketing and Exhaustive
    Bucketing allocation algorithms, the five comparison algorithms
    (Whole Machine, Max Seen, Min Waste, Max Throughput, Quantized
    Bucketing), and the :class:`~repro.core.allocator.TaskOrientedAllocator`
    that drives them with exploratory-mode bootstrap and retry policies.

``repro.sim``
    A discrete-event workflow-execution simulator standing in for the
    paper's Work Queue + HTCondor testbed: manager, scheduler, monitored
    workers with kill-on-overconsumption semantics, and an opportunistic
    worker pool with churn.

``repro.workflows``
    Workload generators: the five synthetic distributions of Figure 4 and
    trace-shaped generators for the ColmenaXTB and TopEFT production
    workflows of Figure 2.

``repro.metrics``
    Resource-waste decomposition (internal fragmentation vs. failed
    allocation) and Absolute Workflow Efficiency (AWE).

``repro.experiments``
    One module per paper table/figure that regenerates the corresponding
    rows/series, plus extension studies (scaling, ablations, robustness).
"""

from repro.core.allocator import AllocatorConfig, ExploratoryConfig, TaskOrientedAllocator
from repro.core.base import ALGORITHM_REGISTRY, AllocationAlgorithm, make_algorithm
from repro.core.baselines import MaxSeen, WholeMachine
from repro.core.buckets import Bucket, BucketState
from repro.core.exhaustive import ExhaustiveBucketing
from repro.core.greedy import GreedyBucketing
from repro.core.quantized import QuantizedBucketing
from repro.core.records import RecordList, ResourceRecord
from repro.core.resources import Resource, ResourceVector
from repro.core.tovar import MaxThroughput, MinWaste

__version__ = "1.0.0"

__all__ = [
    "Resource",
    "ResourceVector",
    "ResourceRecord",
    "RecordList",
    "Bucket",
    "BucketState",
    "GreedyBucketing",
    "ExhaustiveBucketing",
    "WholeMachine",
    "MaxSeen",
    "MinWaste",
    "MaxThroughput",
    "QuantizedBucketing",
    "TaskOrientedAllocator",
    "ExploratoryConfig",
    "AllocatorConfig",
    "AllocationAlgorithm",
    "make_algorithm",
    "ALGORITHM_REGISTRY",
    "__version__",
]
