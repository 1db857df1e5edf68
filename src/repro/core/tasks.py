"""Periodic task model (Liu & Layland) and the vCPU -> task mapping.

The planner reduces table generation to multiprocessor hard real-time
scheduling: each vCPU (U, L) becomes a periodic task (C, T) with
``U = C / T`` and ``T`` the largest candidate period such that the
worst-case blackout ``2 * (T - C)`` stays within L (Sec. 5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

from repro.core.params import VCpuSpec
from repro.core.periods import (
    HYPERPERIOD_NS,
    MIN_PERIOD_NS,
    select_period,
)
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class PeriodicTask:
    """A (possibly constrained-deadline, offset) periodic task.

    Plain vCPU reservations map to implicit-deadline tasks
    (``deadline == period``, ``offset == 0``).  C=D semi-partitioning
    (Sec. 5) produces constrained-deadline subtasks with release offsets:
    the i-th piece of a split task is released ``offset`` ns into each
    period and must finish within ``deadline`` ns of its release so the
    pieces chain without ever running in parallel.

    Three facts the planner reads on every replan are derived once, at
    construction (and so again by ``dataclasses.replace`` and
    :meth:`split`): :attr:`utilization`, :attr:`timing` and
    :attr:`base_name`.  They take no part in ``==``, hashing or ``repr``,
    which see the six fields below them as before.

    Attributes:
        name: Task identifier; subtasks get a ``#k`` suffix.
        cost: Worst-case execution budget C per period (ns).
        period: Period T (ns).
        deadline: Relative deadline D (ns); defaults to T.
        offset: Release offset within the period (ns).
        vcpu: The originating vCPU spec, if any.
        utilization: ``cost / period``.
        timing: ``(period, cost, deadline, offset)``, this task's entry
            in a core's shape key (:func:`repro.core.edfcore.lookup_core`).
        base_name: The vCPU name, ``name`` without its ``#k`` suffix
            (``name`` itself when it has none).
    """

    name: str
    cost: int
    period: int
    deadline: Optional[int] = None
    offset: int = 0
    vcpu: Optional[VCpuSpec] = None
    utilization: float = field(init=False, compare=False, repr=False)
    timing: Tuple[int, int, int, int] = field(init=False, compare=False, repr=False)
    base_name: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.deadline is None:
            object.__setattr__(self, "deadline", self.period)
        if self.cost <= 0:
            raise ConfigurationError(f"{self.name}: cost must be positive")
        if self.period <= 0:
            raise ConfigurationError(f"{self.name}: period must be positive")
        if self.cost > self.deadline:
            raise ConfigurationError(
                f"{self.name}: cost {self.cost} exceeds deadline {self.deadline}"
            )
        if self.deadline + self.offset > self.period:
            raise ConfigurationError(
                f"{self.name}: offset {self.offset} + deadline {self.deadline} "
                f"exceeds period {self.period}"
            )
        if self.offset < 0:
            raise ConfigurationError(f"{self.name}: offset must be non-negative")
        name = self.name
        derive = object.__setattr__
        derive(self, "utilization", self.cost / self.period)
        derive(self, "timing", (self.period, self.cost, self.deadline, self.offset))
        derive(self, "base_name", name if "#" not in name else name.split("#")[0])

    @property
    def density(self) -> float:
        """C / D — the schedulability-relevant load of a constrained task."""
        return self.cost / self.deadline

    @property
    def is_zero_laxity(self) -> bool:
        """True for C=D subtasks, which must run immediately on release."""
        return self.cost == self.deadline

    def split(self, first_cost: int) -> tuple["PeriodicTask", "PeriodicTask"]:
        """Split off a C=D piece of ``first_cost`` ns (Burns et al. [12]).

        Returns ``(cd_piece, remainder)``.  The C=D piece inherits this
        task's offset and has ``deadline == cost`` (zero laxity); the
        remainder is released when the piece's deadline passes and must
        finish by the original deadline.  Because the piece provably
        completes by its deadline under EDF, the two never overlap in
        time even though they live on different cores.
        """
        if not 0 < first_cost < self.cost:
            raise ConfigurationError(
                f"{self.name}: split cost {first_cost} outside (0, {self.cost})"
            )
        base = self.base_name
        index = int(self.name.split("#")[1]) if "#" in self.name else 0
        piece = replace(
            self,
            name=f"{base}#{index}",
            cost=first_cost,
            deadline=first_cost,
        )
        remainder = replace(
            self,
            name=f"{base}#{index + 1}",
            cost=self.cost - first_cost,
            offset=self.offset + first_cost,
            deadline=self.deadline - first_cost,
        )
        return piece, remainder


def vcpu_to_task(
    vcpu: VCpuSpec,
    hyperperiod_ns: int = HYPERPERIOD_NS,
    min_period_ns: int = MIN_PERIOD_NS,
    strict_latency: bool = True,
) -> PeriodicTask:
    """Map a vCPU reservation (U, L) to a periodic task (C, T).

    The period is the largest hyperperiod divisor satisfying the blackout
    bound; the cost is ``floor(U * T)`` (at least 1 ns).  Rounding *down*
    matters: rounding up would inflate each task's utilization by up to
    1/T, making exactly-provisioned configurations (e.g., four 25% vCPUs
    per core) unschedulable.  The guarantee consequently holds to within
    one nanosecond per period — far below enforcement granularity.
    """
    period = select_period(
        vcpu.utilization,
        vcpu.latency_ns,
        hyperperiod_ns=hyperperiod_ns,
        min_period_ns=min_period_ns,
        strict=strict_latency,
    )
    cost = max(1, math.floor(vcpu.utilization * period))
    return PeriodicTask(name=vcpu.name, cost=cost, period=period, vcpu=vcpu)


def vcpus_to_tasks(
    vcpus: Sequence[VCpuSpec],
    hyperperiod_ns: int = HYPERPERIOD_NS,
    min_period_ns: int = MIN_PERIOD_NS,
    strict_latency: bool = True,
) -> List[PeriodicTask]:
    """Vectorized :func:`vcpu_to_task` preserving input order."""
    return [
        vcpu_to_task(v, hyperperiod_ns, min_period_ns, strict_latency) for v in vcpus
    ]


def total_utilization(tasks: Sequence[PeriodicTask]) -> float:
    return sum(t.utilization for t in tasks)


def max_blackout_of_task(task: PeriodicTask) -> int:
    """Worst-case service gap for an implicit-deadline periodic task."""
    return 2 * (task.period - task.cost)
