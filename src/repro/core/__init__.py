"""Core allocation algorithms and the adaptive resource allocator.

This subpackage contains the paper's primary contribution:

* :mod:`repro.core.resources` — the resource model (cores, memory, disk,
  wall time, and user-registered resource kinds) and ``ResourceVector``.
* :mod:`repro.core.records` — significance-weighted resource records of
  completed tasks and the sorted, numpy-backed ``RecordList``.
* :mod:`repro.core.buckets` — ``Bucket`` / ``BucketState``: the partition
  of a record list used to derive probabilistic allocations, and
  ``bucket_stats`` / ``partition_stats``, the one derivation of the
  per-bucket numbers of a partition.
* :mod:`repro.core.cost` — expected-waste cost kernels shared by the two
  bucketing algorithms (vectorized, with pure-Python references).
* :mod:`repro.core.base` — the algorithm contract and
  ``BucketingAlgorithm``: records in, one exact partition search per
  dirty read, ``BucketState`` out.
* :mod:`repro.core.greedy` — Greedy Bucketing (Algorithm 1).
* :mod:`repro.core.exhaustive` — Exhaustive Bucketing (Algorithm 2) and
  the one scorer of its expected waste ``W_B``.
* :mod:`repro.core.baselines` — Whole Machine and Max Seen.
* :mod:`repro.core.tovar` — Min Waste and Max Throughput job sizing
  (Tovar et al., TPDS 2018).
* :mod:`repro.core.quantized` — Quantized Bucketing (Phung et al.,
  WORKS 2021).
* :mod:`repro.core.allocator` — the task-oriented allocator that maintains
  one algorithm instance per (task category, resource) pair, runs the
  exploratory bootstrap, and applies the retry/doubling policy.
"""

from repro.core.allocator import AllocatorConfig, TaskOrientedAllocator
from repro.core.base import ALGORITHM_REGISTRY, AllocationAlgorithm, make_algorithm
from repro.core.baselines import MaxSeen, WholeMachine
from repro.core.buckets import Bucket, BucketState
from repro.core.exhaustive import ExhaustiveBucketing
from repro.core.greedy import GreedyBucketing
from repro.core.quantized import QuantizedBucketing
from repro.core.records import RecordList, ResourceRecord
from repro.core.resources import Resource, ResourceVector
from repro.core.tovar import MaxThroughput, MinWaste

__all__ = [
    "Resource",
    "ResourceVector",
    "ResourceRecord",
    "RecordList",
    "Bucket",
    "BucketState",
    "AllocationAlgorithm",
    "make_algorithm",
    "ALGORITHM_REGISTRY",
    "GreedyBucketing",
    "ExhaustiveBucketing",
    "WholeMachine",
    "MaxSeen",
    "MinWaste",
    "MaxThroughput",
    "QuantizedBucketing",
    "TaskOrientedAllocator",
    "AllocatorConfig",
]
