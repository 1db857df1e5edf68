"""Localized optimal multiprocessor scheduling (the planner's last resort).

If even C=D splitting cannot place every task, Tableau merges a minimal
set of cores into a *cluster* and schedules the cluster with an optimal
multiprocessor algorithm (Sec. 5, "Localized optimal scheduling").  This
module implements DP-WRAP (Levin et al. [39]): time is partitioned at
every job deadline in the cluster, each task receives exactly its fluid
share ``U_i * len`` within each slice, and the per-slice allocations are
laid out across the cluster's cores with McNaughton's wrap-around rule.
DP-WRAP is optimal — it succeeds whenever total utilization does not
exceed the core count — at the price of many migrations, which is why
the planner only ever uses it on small clusters of "close" cores.

Fluid shares are tracked with exact rational arithmetic and materialized
with a floor-with-catch-up rule, which makes each task's cumulative
allocation exact at every one of its deadlines (``U_i * k * T_i`` is an
integer there).  Rounding can momentarily over-subscribe a slice by a
few nanoseconds; the surplus is shaved from tasks that are not at a
deadline boundary, and a final ground-truth validation pass backstops
the whole construction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.edf import merge_segments
from repro.core.table import CoreTable
from repro.core.tasks import PeriodicTask
from repro.errors import ConfigurationError, PlanningError


def _slice_boundaries(tasks: Sequence[PeriodicTask], horizon: int) -> List[int]:
    """All job deadlines (period multiples) in ``[0, horizon]``."""
    boundaries = {0, horizon}
    for task in tasks:
        if horizon % task.period != 0:
            raise ConfigurationError(
                f"horizon {horizon} not a multiple of {task.name}'s period"
            )
        boundaries.update(range(task.period, horizon + 1, task.period))
    return sorted(boundaries)


def dp_wrap_schedule(
    tasks: Sequence[PeriodicTask],
    cores: Sequence[int],
    horizon: int,
) -> Dict[int, CoreTable]:
    """Schedule implicit-deadline ``tasks`` on a cluster of ``cores``.

    Returns one :class:`CoreTable` per cluster core.  Raises
    :class:`PlanningError` if the cluster is over-utilized or (in
    pathological rounding corner cases) a valid layout cannot be
    materialized in integer nanoseconds.
    """
    if not cores:
        raise ConfigurationError("cluster must contain at least one core")
    for task in tasks:
        if task.deadline != task.period or task.offset != 0:
            raise ConfigurationError(
                f"{task.name}: DP-WRAP requires implicit-deadline tasks "
                f"without offsets"
            )
    m = len(cores)
    total_util = sum(Fraction(t.cost, t.period) for t in tasks)
    if total_util > m:
        raise PlanningError(
            f"cluster of {m} cores over-utilized: {float(total_util):.4f}"
        )

    boundaries = _slice_boundaries(tasks, horizon)
    rates = [Fraction(t.cost, t.period) for t in tasks]
    allocated = [0] * len(tasks)  # cumulative integer ns actually granted
    # Per-core segment lists: (start, end, task_index).
    segments: Dict[int, List[Tuple[int, int, int]]] = {core: [] for core in cores}

    for lo, hi in zip(boundaries, boundaries[1:]):
        length = hi - lo
        allocs = _slice_allocations(tasks, rates, allocated, hi, length, m)
        _mcnaughton_layout(allocs, cores, lo, length, segments)
        for index, amount in enumerate(allocs):
            allocated[index] += amount

    names = [t.name for t in tasks]
    tables: Dict[int, CoreTable] = {}
    for core in cores:
        allocations = merge_segments(segments[core], names)
        table = CoreTable(cpu=core, length_ns=horizon, allocations=allocations)
        table.validate_layout()
        tables[core] = table
    _validate_fluid_deadlines(tasks, tables, horizon)
    return tables


def _slice_allocations(
    tasks: Sequence[PeriodicTask],
    rates: Sequence[Fraction],
    allocated: Sequence[int],
    slice_end: int,
    length: int,
    m: int,
) -> List[int]:
    """Integer ns each task receives in the slice ending at ``slice_end``.

    Floor-with-catch-up: grant ``floor(U_i * slice_end) - allocated_i``.
    At a deadline of task i the fluid target is an exact integer, so the
    floor is exact and every job has its full budget by its deadline.
    """
    allocs: List[int] = []
    for index, task in enumerate(tasks):
        target = rates[index] * slice_end
        grant = int(target) - allocated[index]  # int() floors positive Fractions
        if grant < 0 or grant > length:
            raise PlanningError(
                f"{task.name}: slice grant {grant} ns outside [0, {length}]"
            )
        allocs.append(grant)

    capacity = m * length
    surplus = sum(allocs) - capacity
    if surplus > 0:
        # Rounding overshoot (< one ns per task): shave from tasks that are
        # not at a deadline boundary — their shortfall is repaid by the
        # catch-up rule in the next slice.
        for index, task in enumerate(tasks):
            if surplus <= 0:
                break
            if slice_end % task.period == 0:
                continue  # at its deadline; its grant must stay exact
            shave = min(allocs[index], surplus)
            allocs[index] -= shave
            surplus -= shave
        if surplus > 0:
            raise PlanningError(
                "DP-WRAP could not resolve a rounding overshoot; "
                "cluster is at integral capacity"
            )
    return allocs


def _mcnaughton_layout(
    allocs: Sequence[int],
    cores: Sequence[int],
    slice_start: int,
    length: int,
    segments: Dict[int, List[Tuple[int, int, int]]],
) -> None:
    """McNaughton's wrap-around rule within one slice.

    Tasks are laid end to end on the first core; on overflow the tail
    wraps to the start of the next core's slice.  The wrapped halves of a
    task occupy ``[cursor, length)`` and ``[0, overflow)`` — disjoint in
    time because no per-slice allocation exceeds the slice length.
    """
    core_index = 0
    cursor = 0
    for task_index, amount in enumerate(allocs):
        while amount > 0:
            if core_index >= len(cores):
                raise PlanningError("McNaughton layout overflowed the cluster")
            room = length - cursor
            chunk = min(amount, room)
            core = cores[core_index]
            start = slice_start + cursor
            segments[core].append((start, start + chunk, task_index))
            amount -= chunk
            cursor += chunk
            if cursor == length:
                core_index += 1
                cursor = 0


def _validate_fluid_deadlines(
    tasks: Sequence[PeriodicTask],
    tables: Dict[int, CoreTable],
    horizon: int,
) -> None:
    """Ground truth: every job served in full by its deadline, no overlap."""
    intervals: Dict[str, List[Tuple[int, int]]] = {t.name: [] for t in tasks}
    for table in tables.values():
        for alloc in table.allocations:
            if alloc.vcpu is not None:
                intervals[alloc.vcpu].append((alloc.start, alloc.end))
    for task in tasks:
        windows = sorted(intervals[task.name])
        for (s1, e1), (s2, _e2) in zip(windows, windows[1:]):
            if s2 < e1:
                raise PlanningError(
                    f"{task.name}: parallel execution at {s2} in DP-WRAP layout"
                )
        for k in range(horizon // task.period):
            release = k * task.period
            deadline = release + task.period
            served = sum(
                min(e, deadline) - max(s, release)
                for s, e in windows
                if s < deadline and e > release
            )
            if served < task.cost:
                raise PlanningError(
                    f"{task.name}: job {k} served {served}/{task.cost} ns "
                    f"by deadline {deadline}"
                )


def grow_cluster(
    core_loads: Dict[int, Union[float, Fraction]],
    sockets: Optional[Dict[int, int]],
    demand: Union[float, Fraction],
) -> List[int]:
    """Pick a minimal set of cores whose combined slack covers ``demand``.

    Mirrors the paper's "merge two close cores, repeat if needed": start
    from the least-loaded core and keep adding the least-loaded remaining
    core — preferring cores on the same socket, since those share a cache
    and migrations between them are cheap — until the cluster's total
    slack reaches the demand.  Slack is summed in the loads' own type, so
    :class:`~fractions.Fraction` loads compare exactly.
    """
    remaining = dict(core_loads)
    if not remaining:
        raise PlanningError("no cores available for clustering")
    seed = min(remaining, key=lambda c: (remaining[c], c))
    cluster = [seed]
    slack = 1 - remaining.pop(seed)
    while slack < demand and remaining:
        if sockets is not None:
            cluster_sockets = {sockets[c] for c in cluster}
            local = [c for c in remaining if sockets[c] in cluster_sockets]
            pool = local if local else list(remaining)
        else:
            pool = list(remaining)
        chosen = min(pool, key=lambda c: (remaining[c], c))
        cluster.append(chosen)
        slack += 1 - remaining.pop(chosen)
    if slack < demand:
        raise PlanningError(
            f"even a cluster of all cores lacks capacity: slack "
            f"{float(slack):.4f} < demand {float(demand):.4f}"
        )
    return sorted(cluster)
