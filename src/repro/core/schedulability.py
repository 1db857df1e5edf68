"""Uniprocessor EDF schedulability analysis (demand bound functions).

The C=D semi-partitioning stage needs to answer two questions quickly:

1. Is a set of constrained-deadline periodic tasks EDF-schedulable on
   one core?  (Processor-demand criterion, Baruah et al.)
2. What is the largest C=D piece (a zero-laxity subtask with
   ``deadline == cost``) that can be added to a core without making it
   unschedulable?  (Binary search over the piece size.)

All tests here treat tasks as synchronously released, which is exact for
sporadic tasks and safely conservative for the offset subtasks produced
by task splitting.  Demand evaluation is vectorized with numpy since the
planner may run thousands of these tests while searching for splits.
Only these tests use numpy, so they import it when first called: a
process that never splits a vCPU never loads it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence

from repro.core.tasks import PeriodicTask

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    import numpy as np

#: Absolute slack (ns) required beyond the demand bound; guards against
#: pathological zero-slack schedules that the dispatcher could not enforce.
DEFAULT_SLACK_NS = 0


def _deadline_points(tasks: Sequence[PeriodicTask], horizon: int) -> np.ndarray:
    """All absolute deadlines of synchronous jobs within ``[0, horizon]``.

    For task sets whose periods divide the horizon (always true for
    Tableau's hyperperiod-divisor periods) it is sufficient to check the
    demand criterion at these points only: demand is right-continuous and
    increases only at deadlines, and ``dbf(t + H) = dbf(t) + U * H <=
    dbf(t) + H`` whenever total utilization is at most one.
    """
    import numpy as np

    points: List[np.ndarray] = []
    for task in tasks:
        deadline = task.deadline
        if deadline > horizon:
            continue
        count = (horizon - deadline) // task.period + 1
        points.append(deadline + task.period * np.arange(count, dtype=np.int64))
    if not points:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(points))


def demand_bound(tasks: Sequence[PeriodicTask], times: np.ndarray) -> np.ndarray:
    """Total processor demand ``dbf(t)`` of ``tasks`` at each time in ``times``.

    ``dbf(t) = sum_i max(0, floor((t - D_i) / T_i) + 1) * C_i`` — the
    cumulative execution of all jobs with both release and deadline
    inside ``[0, t]``.
    """
    import numpy as np

    demand = np.zeros(len(times), dtype=np.int64)
    for task in tasks:
        jobs = (times - task.deadline) // task.period + 1
        np.maximum(jobs, 0, out=jobs)
        demand += jobs * task.cost
    return demand


def edf_schedulable(
    tasks: Sequence[PeriodicTask],
    horizon: int,
    slack_ns: int = DEFAULT_SLACK_NS,
) -> bool:
    """Processor-demand test: EDF schedulable iff ``dbf(t) <= t`` everywhere.

    ``horizon`` must be a common multiple of all task periods (Tableau
    always passes the table hyperperiod).
    """
    if not tasks:
        return True
    total_util = sum(t.utilization for t in tasks)
    if total_util > 1.0 + 1e-12:
        return False
    times = _deadline_points(tasks, horizon)
    if len(times) == 0:
        return True
    demand = demand_bound(tasks, times)
    return bool((demand + slack_ns <= times).all())


def max_cd_piece(
    existing: Sequence[PeriodicTask],
    period: int,
    max_cost: int,
    horizon: int,
    min_piece_ns: int = 1,
    slack_ns: int = DEFAULT_SLACK_NS,
) -> Optional[int]:
    """Largest C=D piece (cost == deadline) of ``period`` that fits on a core.

    Returns the largest ``c`` in ``[min_piece_ns, max_cost]`` such that
    ``existing + [(c, D=c, T=period)]`` stays EDF-schedulable, or ``None``
    if not even ``min_piece_ns`` fits.  This is the inner search of the
    C=D task-splitting scheme (Burns et al. [12]): the piece runs with
    zero laxity, so EDF executes it immediately on release and the split
    task's remainder can safely start on another core once the piece's
    deadline passes.

    The predicate "piece of size c fits" is monotone in ``c`` (a larger
    zero-laxity piece strictly dominates a smaller one in demand), so a
    plain binary search is exact.
    """
    if max_cost < min_piece_ns:
        return None
    remaining_capacity = 1.0 - sum(t.utilization for t in existing)
    if remaining_capacity <= 0.0:
        return None
    # Utilization is a hard ceiling for any piece size.
    cap = min(max_cost, int(remaining_capacity * period))
    if cap < min_piece_ns:
        return None

    def fits(cost: int) -> bool:
        piece = PeriodicTask(
            name="__probe#0", cost=cost, period=period, deadline=cost
        )
        return edf_schedulable(list(existing) + [piece], horizon, slack_ns)

    if not fits(min_piece_ns):
        return None
    lo, hi = min_piece_ns, cap
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def core_utilization(tasks: Iterable[PeriodicTask]) -> float:
    """Total utilization of the tasks assigned to one core."""
    return sum(t.utilization for t in tasks)


def qpa_schedulable(
    tasks: Sequence[PeriodicTask],
    horizon: int,
    slack_ns: int = DEFAULT_SLACK_NS,
) -> bool:
    """Quick Processor-demand Analysis (Zhang & Burns, 2009).

    An exact EDF test equivalent to :func:`edf_schedulable` but usually
    far faster: instead of evaluating ``dbf`` at *every* deadline, QPA
    iterates backwards from the end of the busy interval —
    ``t <- dbf(t)`` (or the largest deadline strictly below ``t`` when
    demand equals supply) — and terminates once ``t`` falls below the
    smallest deadline.  The demand function is the same; only the set of
    inspection points shrinks, typically to a handful.

    Used by the semi-partitioning search when probing many candidate
    splits; property tests cross-validate it against the exhaustive DBF
    test on random task sets.
    """
    if not tasks:
        return True
    if sum(t.utilization for t in tasks) > 1.0 + 1e-12:
        return False
    min_deadline = min(t.deadline for t in tasks)

    def dbf(time: int) -> int:
        demand = 0
        for task in tasks:
            jobs = (time - task.deadline) // task.period + 1
            if jobs > 0:
                demand += jobs * task.cost
        return demand

    def max_deadline_below(time: int) -> int:
        best = 0
        for task in tasks:
            if task.deadline >= time:
                continue
            # Largest absolute deadline of this task strictly below `time`.
            k = (time - 1 - task.deadline) // task.period
            best = max(best, task.deadline + k * task.period)
        return best

    t = max_deadline_below(horizon + 1)
    while t >= min_deadline:
        demand = dbf(t)
        if demand + slack_ns > t:
            return False
        if demand < t:
            t = demand if demand >= min_deadline else min_deadline - 1
            if t >= min_deadline:
                # Snap to an actual deadline point at or below t.
                t = max_deadline_below(t + 1)
        else:
            t = max_deadline_below(t)
        if t == 0:
            break
    return True
