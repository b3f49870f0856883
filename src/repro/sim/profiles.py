"""Consumption profiles: when does an under-allocated task get killed?

The paper's waste model charges a failed attempt ``a_i * t_i``, where
``t_i`` is how long the attempt ran before the execution system killed
it (Section II-C).  The real kill time depends on how a task's
consumption grows towards its peak, which the paper's production traces
do not expose — so the simulator makes it an explicit, pluggable model:

* :class:`LinearRampProfile` (default): consumption of each resource
  grows linearly from 0 to the task's peak over its duration, so an
  attempt allocated fraction ``f`` of the task's peak is killed at
  ``f * duration`` having consumed exactly its allocation.  This is the
  neutral middle ground between the extremes below.
* :class:`InstantPeakProfile`: consumption jumps to the peak at start;
  an insufficient allocation is detected (almost) immediately, so
  failed allocations are nearly free.  Lower bound on retry waste.
* :class:`StepProfile`: consumption sits at ``baseline_fraction`` of
  the peak until ``step_fraction`` of the duration, then jumps to the
  peak — the "allocate, compute for a while, then blow up in the final
  accumulation" shape common in analysis tasks.  Upper-bound-ish retry
  waste at ``step_fraction`` close to 1.

Wall time itself (the ``TIME`` resource, when managed) always grows
linearly, whatever the profile.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.resources import TIME, Resource, ResourceVector

__all__ = [
    "KillVerdict",
    "ConsumptionProfile",
    "LinearRampProfile",
    "InstantPeakProfile",
    "StepProfile",
]

#: Fraction of the duration after which an instant-peak violation is
#: detected: monitors poll, they do not trap allocations, so detection
#: is fast but not free.
_DETECTION_FRACTION = 0.01


@dataclass(frozen=True)
class KillVerdict:
    """Outcome of checking one attempt against its allocation.

    Attributes
    ----------
    fraction:
        Fraction of the task's true duration the attempt survived, in
        (0, 1].  ``1.0`` with no exhausted resources means success.
    exhausted:
        Resources whose limits were hit at that moment (empty on
        success).
    observed:
        The peak consumption the monitor recorded up to the kill (on
        success: the task's true peaks).  The allocator receives this as
        the failed attempt's evidence.
    """

    fraction: float
    exhausted: Tuple[Resource, ...]
    observed: ResourceVector

    @property
    def success(self) -> bool:
        return not self.exhausted


class ConsumptionProfile(abc.ABC):
    """How consumption approaches the peak within one attempt."""

    name: str = ""

    @abc.abstractmethod
    def resource_kill_fraction(
        self, allocated: float, peak: float
    ) -> Optional[float]:
        """Duration fraction at which ``allocated < peak`` is exceeded.

        ``None`` means the allocation suffices for the whole run.
        """

    @abc.abstractmethod
    def consumed_at(self, peak: float, fraction: float) -> float:
        """Consumption of a resource at a duration fraction."""

    # -- the shared verdict logic ------------------------------------------------

    def check(
        self,
        allocation: ResourceVector,
        consumption: ResourceVector,
        duration: float,
        time_limit: Optional[float] = None,
    ) -> KillVerdict:
        """Decide when (if ever) an attempt is killed.

        ``time_limit`` is the allocated wall time when the TIME resource
        is managed; ``None`` disables wall-time enforcement.
        """
        # The component dicts, read directly; an absent resource is 0.0,
        # as ``ResourceVector.__getitem__`` has it.
        peaks = consumption.raw
        limits = allocation.raw
        kill_fraction = 1.0
        exhausted: Tuple[Resource, ...] = ()
        for res, peak in peaks.items():
            if res is TIME:
                continue
            allocated = limits.get(res, 0.0)
            if peak <= allocated:
                continue
            fraction = self.resource_kill_fraction(allocated, peak)
            if fraction is None:
                continue
            if fraction < kill_fraction - 1e-12:
                kill_fraction, exhausted = fraction, (res,)
            elif abs(fraction - kill_fraction) <= 1e-12 and kill_fraction < 1.0:
                exhausted = exhausted + (res,)
        if time_limit is not None and time_limit < duration:
            time_fraction = time_limit / duration
            if time_fraction < kill_fraction - 1e-12:
                kill_fraction, exhausted = time_fraction, (TIME,)
            elif abs(time_fraction - kill_fraction) <= 1e-12 and exhausted:
                exhausted = exhausted + (TIME,)
            elif not exhausted:
                kill_fraction, exhausted = time_fraction, (TIME,)

        if not exhausted:
            return KillVerdict(fraction=1.0, exhausted=(), observed=consumption)

        observed = {}
        for res, peak in peaks.items():
            if res is TIME:
                continue
            if res in exhausted:
                # The monitor catches the task at its limit.
                observed[res] = min(limits.get(res, 0.0), peak)
            else:
                observed[res] = min(self.consumed_at(peak, kill_fraction), peak)
        if TIME in peaks or time_limit is not None:
            observed[TIME] = kill_fraction * duration
        return KillVerdict(
            fraction=max(kill_fraction, 1e-9),
            exhausted=exhausted,
            observed=ResourceVector(observed),
        )


class LinearRampProfile(ConsumptionProfile):
    """Consumption ramps linearly to the peak, then plateaus.

    Parameters
    ----------
    peak_fraction:
        Fraction of the duration at which consumption reaches the peak.
        Programs build their working set early and then compute on it,
        so the default reaches the peak a quarter of the way in —
        under-allocations are detected early and failed attempts stay
        cheap, matching the paper's observation that the bucketing
        algorithms' failed-allocation waste is small (Section V-D).
        ``peak_fraction=1.0`` is the ramp-to-the-very-end worst case.
    """

    name = "linear"

    def __init__(self, peak_fraction: float = 0.25) -> None:
        if not (0.0 < peak_fraction <= 1.0):
            raise ValueError(f"peak_fraction must be in (0, 1], got {peak_fraction}")
        self.peak_fraction = peak_fraction

    def resource_kill_fraction(self, allocated: float, peak: float) -> Optional[float]:
        if peak <= allocated:
            return None
        if peak <= 0:
            return None
        crossing = (allocated / peak) * self.peak_fraction
        return min(1.0, max(crossing, _DETECTION_FRACTION))

    def consumed_at(self, peak: float, fraction: float) -> float:
        if fraction >= self.peak_fraction:
            return peak
        return peak * (fraction / self.peak_fraction)


class InstantPeakProfile(ConsumptionProfile):
    """Consumption hits the peak immediately after start."""

    name = "instant"

    def resource_kill_fraction(self, allocated: float, peak: float) -> Optional[float]:
        if peak <= allocated:
            return None
        return _DETECTION_FRACTION

    def consumed_at(self, peak: float, fraction: float) -> float:
        return peak


class StepProfile(ConsumptionProfile):
    """Baseline consumption, then a jump to the peak late in the run.

    Parameters
    ----------
    step_fraction:
        Fraction of the duration at which consumption jumps to the peak.
    baseline_fraction:
        Consumption before the jump, as a fraction of the peak.
    """

    name = "step"

    def __init__(self, step_fraction: float = 0.5, baseline_fraction: float = 0.1) -> None:
        if not (0.0 < step_fraction <= 1.0):
            raise ValueError(f"step_fraction must be in (0, 1], got {step_fraction}")
        if not (0.0 <= baseline_fraction < 1.0):
            raise ValueError(
                f"baseline_fraction must be in [0, 1), got {baseline_fraction}"
            )
        self.step_fraction = step_fraction
        self.baseline_fraction = baseline_fraction

    def resource_kill_fraction(self, allocated: float, peak: float) -> Optional[float]:
        if peak <= allocated:
            return None
        baseline = peak * self.baseline_fraction
        if allocated < baseline:
            return _DETECTION_FRACTION
        return self.step_fraction

    def consumed_at(self, peak: float, fraction: float) -> float:
        if fraction < self.step_fraction:
            return peak * self.baseline_fraction
        return peak
