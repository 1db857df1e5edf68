"""Peephole optimization pass for scheduling tables.

Sec. 5 ("Post-processing"): "one might add a 'peep-hole' optimization
pass to reduce the number of migrations and preemptions even further."
This module implements that pass.  EDF is throughput-optimal but
preemption-happy: a job interrupted by an earlier-deadline release ends
up split across two allocations, costing two context switches at
runtime.

The optimizer walks each core's table looking for *swap* opportunities:
two adjacent allocations A, B where exchanging their order glues one of
them to a neighbouring allocation of the same vCPU.  Every candidate is
applied tentatively and the whole table is re-validated against the
task set (ground truth: every job still receives its full budget by its
deadline); invalid swaps are rolled back.  The pass iterates until no
swap helps, so the result is locally optimal and *provably* still
correct.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.edf import preemption_count
from repro.core.table import Allocation, CoreTable, validate_against_tasks
from repro.core.tasks import PeriodicTask
from repro.errors import PlanningError


@dataclass
class PeepholeReport:
    """Outcome of one peephole run."""

    swaps_applied: int
    swaps_rejected: int
    preemptions_before: int
    preemptions_after: int

    @property
    def preemptions_removed(self) -> int:
        return self.preemptions_before - self.preemptions_after

    def merge(self, other: "PeepholeReport") -> None:
        self.swaps_applied += other.swaps_applied
        self.swaps_rejected += other.swaps_rejected
        self.preemptions_before += other.preemptions_before
        self.preemptions_after += other.preemptions_after


def _swap_adjacent(
    allocations: Sequence[Allocation], index: int
) -> List[Allocation]:
    """Swap allocations ``index`` and ``index + 1`` in time.

    The two stay back-to-back, so only their order (and hence their
    start/end offsets) changes; everything else is untouched.
    """
    first = allocations[index]
    second = allocations[index + 1]
    if first.end != second.start:
        raise PlanningError("can only swap contiguous allocations")
    new_first = Allocation(first.start, first.start + second.length, second.vcpu)
    new_second = Allocation(new_first.end, second.end, first.vcpu)
    result = list(allocations)
    result[index] = new_first
    result[index + 1] = new_second
    return result


def _merges_with_neighbour(
    allocations: Sequence[Allocation], index: int
) -> bool:
    """Would swapping ``index``/``index+1`` glue same-vCPU allocations?"""
    first = allocations[index]
    second = allocations[index + 1]
    if first.vcpu == second.vcpu or first.end != second.start:
        return False
    before = allocations[index - 1] if index > 0 else None
    after = allocations[index + 2] if index + 2 < len(allocations) else None
    # After the swap: [... before][second][first][after ...]
    glues_left = (
        before is not None
        and before.vcpu == second.vcpu
        and before.end == first.start
    )
    glues_right = (
        after is not None
        and after.vcpu == first.vcpu
        and after.start == second.end
    )
    return glues_left or glues_right


def optimize_core(
    table: CoreTable,
    tasks: Sequence[PeriodicTask],
    max_passes: int = 8,
) -> Tuple[CoreTable, PeepholeReport]:
    """Reduce preemptions on one core without violating any deadline.

    ``tasks`` must be the periodic tasks this table was generated for
    (allocation vCPU names matching task names); validation uses them as
    ground truth after every tentative swap.
    """
    before = preemption_count(table, tasks)
    current = list(table.allocations)
    applied = 0
    rejected = 0

    for _ in range(max_passes):
        changed = False
        for index in range(len(current) - 1):
            if not _merges_with_neighbour(current, index):
                continue
            candidate_allocs = _swap_adjacent(current, index)
            candidate = CoreTable(
                cpu=table.cpu,
                length_ns=table.length_ns,
                allocations=_coalesce_same_vcpu(candidate_allocs),
            )
            try:
                candidate.validate_layout()
                validate_against_tasks(candidate, tasks)
            except PlanningError:
                rejected += 1
                continue
            current = list(candidate.allocations)
            applied += 1
            changed = True
            break  # indices shifted; restart the scan
        if not changed:
            break

    optimized = CoreTable(
        cpu=table.cpu, length_ns=table.length_ns, allocations=current
    )
    optimized.validate_layout()
    after = preemption_count(optimized, tasks)
    return optimized, PeepholeReport(
        swaps_applied=applied,
        swaps_rejected=rejected,
        preemptions_before=before,
        preemptions_after=after,
    )


def _coalesce_same_vcpu(allocations: Sequence[Allocation]) -> List[Allocation]:
    merged: List[Allocation] = []
    for alloc in allocations:
        if merged and merged[-1].vcpu == alloc.vcpu and merged[-1].end == alloc.start:
            merged[-1] = Allocation(merged[-1].start, alloc.end, alloc.vcpu)
        else:
            merged.append(alloc)
    return merged
