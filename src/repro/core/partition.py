"""Worst-fit-decreasing partitioning of periodic tasks onto cores.

The planner's first (and, in practice, almost always sufficient) stage:
statically assign each vCPU-task to one core such that no core is
over-utilized (Sec. 5, "Partitioning").  Worst-fit decreasing — always
placing the next-largest task on the least-utilized core — spreads load
evenly, which both maximizes the headroom available to the second-level
scheduler and leaves room for later VM additions without re-shuffling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heapreplace
from operator import attrgetter
from typing import Dict, List, Optional, Sequence

from repro.core.tasks import PeriodicTask

#: Tolerance for utilization sums; absorbs the <1e-5 over-reservation
#: introduced by rounding task costs up to integer nanoseconds.
UTILIZATION_EPSILON = 1e-9

_name = attrgetter("name")
_utilization = attrgetter("utilization")


@dataclass
class PartitionResult:
    """Outcome of a partitioning attempt.

    ``assignment`` maps core id -> tasks (in assignment order); tasks
    that fit nowhere are reported in ``unassigned`` (in decreasing
    utilization order).  ``success`` is True iff everything was placed.
    """

    assignment: Dict[int, List[PeriodicTask]]
    unassigned: List[PeriodicTask] = field(default_factory=list)

    @property
    def success(self) -> bool:
        return not self.unassigned

    def utilization_of(self, core: int) -> float:
        return sum(t.utilization for t in self.assignment.get(core, ()))

    def spread(self) -> float:
        """Max-min core utilization; small values indicate even load."""
        utils = [self.utilization_of(c) for c in self.assignment]
        return max(utils) - min(utils) if utils else 0.0


def worst_fit_decreasing(
    tasks: Sequence[PeriodicTask],
    cores: Sequence[int],
    capacities: Optional[Dict[int, float]] = None,
    rotation: int = 0,
) -> PartitionResult:
    """Partition ``tasks`` onto ``cores`` with the WFD heuristic.

    ``capacities`` optionally lowers a core's usable utilization below
    1.0 (e.g., to reserve dispatcher headroom or keep a core partly free
    for dom0 work); cores default to full capacity.

    ``rotation`` rotates the tie-break order among equal-utilization
    tasks.  Placement quality is unchanged, but *which* task ends up
    unplaceable (and hence split by semi-partitioning) rotates — the
    mechanism behind Sec. 7.5's "periodically re-generate the scheduling
    table to make sure that all vCPUs take a turn being split".

    Implicit-deadline tasks are EDF-schedulable on one core exactly when
    their utilizations sum to at most the capacity, so the fit test here
    is a plain utilization check — no demand-bound analysis needed at
    this stage.
    """
    if capacities is None:
        capacities = {}
    assignment: Dict[int, List[PeriodicTask]] = {core: [] for core in cores}
    unassigned: List[PeriodicTask] = []

    # Ties among equal utilizations break by rank: a name's place in
    # sorted order minus ``rotation``, mod the task count.  vCPU names
    # are unique (the census check rejects duplicates), so sorting by
    # name, rotating left by ``rotation``, then sorting stably by
    # utilization, largest first, gives that order.
    ordered = sorted(tasks, key=_name)
    if ordered:
        shift = rotation % len(ordered)
        ordered = ordered[shift:] + ordered[:shift]
    ordered.sort(key=_utilization, reverse=True)
    if not capacities and cores:
        # Uniform full capacity (the planner's case): the least-loaded
        # core sits at the top of a heap, turning each placement into
        # O(log cores) instead of a full scan — and if *it* cannot take
        # the task, no core can.  Ties break toward the earliest core in
        # ``cores`` (the heap key's position field), matching the scan's
        # strict-< rule, and each core's load accumulates in the same
        # order of additions, so the packing is bit-identical.
        heap = [(0.0, position, core) for position, core in enumerate(cores)]
        heapify(heap)
        for task in ordered:
            utilization = task.utilization
            load_now, position, core = heap[0]
            if load_now + utilization <= 1.0 + UTILIZATION_EPSILON:
                assignment[core].append(task)
                heapreplace(heap, (load_now + utilization, position, core))
            else:
                unassigned.append(task)
        return PartitionResult(assignment=assignment, unassigned=unassigned)

    load: Dict[int, float] = {core: 0.0 for core in cores}
    for task in ordered:
        best_core: Optional[int] = None
        best_load = None
        for core in cores:
            capacity = capacities.get(core, 1.0)
            if load[core] + task.utilization <= capacity + UTILIZATION_EPSILON:
                if best_load is None or load[core] < best_load:
                    best_core = core
                    best_load = load[core]
        if best_core is None:
            unassigned.append(task)
        else:
            assignment[best_core].append(task)
            load[best_core] += task.utilization
    return PartitionResult(assignment=assignment, unassigned=unassigned)


def first_fit_decreasing(
    tasks: Sequence[PeriodicTask],
    cores: Sequence[int],
    capacities: Optional[Dict[int, float]] = None,
) -> PartitionResult:
    """First-fit-decreasing packing, provided for the ablation benchmark.

    FFD concentrates load on low-numbered cores; the paper prefers WFD
    because even spreading benefits the second-level scheduler.  The
    ablation bench (`benchmarks/test_ablation_partitioning.py`) compares
    the two on packability and load spread.
    """
    if capacities is None:
        capacities = {}
    load: Dict[int, float] = {core: 0.0 for core in cores}
    assignment: Dict[int, List[PeriodicTask]] = {core: [] for core in cores}
    unassigned: List[PeriodicTask] = []
    ordered = sorted(tasks, key=lambda t: (-t.utilization, t.name))
    for task in ordered:
        for core in cores:
            capacity = capacities.get(core, 1.0)
            if load[core] + task.utilization <= capacity + UTILIZATION_EPSILON:
                assignment[core].append(task)
                load[core] += task.utilization
                break
        else:
            unassigned.append(task)
    return PartitionResult(assignment=assignment, unassigned=unassigned)
