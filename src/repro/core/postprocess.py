"""Table post-processing: allocation coalescing and related passes.

After a schedule is found the planner cleans it up before handing it to
the dispatcher (Sec. 5, "Post-processing"):

* back-to-back allocations of the same vCPU are merged (they arise
  whenever EDF runs consecutive jobs of one task without a gap);
* allocations shorter than the enforcement threshold — determined by
  context-switch overheads — are coalesced into a neighbouring
  allocation, since the dispatcher cannot usefully enforce them anyway.

Coalescing can transfer a few microseconds of budget between vCPUs; the
pass returns an exact account of what moved so the planner can validate
the table with a matching tolerance and callers can inspect the drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.table import Allocation, CoreTable

#: Default enforcement threshold (ns): allocations shorter than this are
#: merged away.  10 us comfortably exceeds a context switch plus timer
#: reprogramming on server-class hardware.
DEFAULT_COALESCE_NS = 10_000


@dataclass
class CoalesceReport:
    """Budget moved by coalescing, per vCPU (ns lost / gained per cycle)."""

    lost_ns: Dict[str, int] = field(default_factory=dict)
    gained_ns: Dict[str, int] = field(default_factory=dict)
    merged_count: int = 0
    dropped_count: int = 0

    def record_transfer(self, loser: str, gainer: Optional[str], amount: int) -> None:
        self.lost_ns[loser] = self.lost_ns.get(loser, 0) + amount
        if gainer is not None:
            self.gained_ns[gainer] = self.gained_ns.get(gainer, 0) + amount

    @property
    def max_lost_ns(self) -> int:
        return max(self.lost_ns.values(), default=0)

    def merge(self, other: "CoalesceReport", names: Sequence[str]) -> None:
        """Add a core record's name-free report, keyed by base index, to
        this one: ``names[k]`` is the vCPU of index ``k``."""
        for index, amount in other.lost_ns.items():
            vcpu = names[index]
            self.lost_ns[vcpu] = self.lost_ns.get(vcpu, 0) + amount
        for index, amount in other.gained_ns.items():
            vcpu = names[index]
            self.gained_ns[vcpu] = self.gained_ns.get(vcpu, 0) + amount
        self.merged_count += other.merged_count
        self.dropped_count += other.dropped_count


def merge_adjacent(allocations: List[Allocation]) -> Tuple[List[Allocation], int]:
    """Merge touching allocations of the same vCPU; returns (result, merges)."""
    merged: List[Allocation] = []
    merges = 0
    for alloc in allocations:
        if (
            merged
            and merged[-1].vcpu == alloc.vcpu
            and merged[-1].end == alloc.start
        ):
            merged[-1] = Allocation(merged[-1].start, alloc.end, alloc.vcpu)
            merges += 1
        else:
            merged.append(alloc)
    return merged, merges


def coalesce(
    table: CoreTable, threshold_ns: int = DEFAULT_COALESCE_NS
) -> Tuple[CoreTable, CoalesceReport]:
    """Remove sub-threshold allocations by donating them to a neighbour.

    A short allocation contiguous with a neighbour is absorbed into it
    (the neighbour's vCPU gains the time).  Same-vCPU neighbours are
    preferred so no budget actually moves.  An isolated short allocation
    — no touching neighbour on either side — becomes idle time, which
    only ever *helps* other vCPUs via the second-level scheduler.

    The pass iterates to a fixed point because a merge can make two
    same-vCPU allocations adjacent, enabling further merging.
    """
    report = CoalesceReport()
    allocations = list(table.allocations)
    changed = True
    while changed:
        changed = False
        allocations, merges = merge_adjacent(allocations)
        report.merged_count += merges
        for index, alloc in enumerate(allocations):
            if alloc.length >= threshold_ns:
                continue
            previous = allocations[index - 1] if index > 0 else None
            following = (
                allocations[index + 1] if index + 1 < len(allocations) else None
            )
            prev_touches = previous is not None and previous.end == alloc.start
            next_touches = following is not None and following.start == alloc.end

            if prev_touches and previous.vcpu == alloc.vcpu:
                allocations[index - 1] = Allocation(
                    previous.start, alloc.end, previous.vcpu
                )
            elif next_touches and following.vcpu == alloc.vcpu:
                allocations[index + 1] = Allocation(
                    alloc.start, following.end, following.vcpu
                )
            elif prev_touches and next_touches:
                # Donate to the longer neighbour (least relative impact).
                if previous.length >= following.length:
                    allocations[index - 1] = Allocation(
                        previous.start, alloc.end, previous.vcpu
                    )
                    report.record_transfer(alloc.vcpu, previous.vcpu, alloc.length)
                else:
                    allocations[index + 1] = Allocation(
                        alloc.start, following.end, following.vcpu
                    )
                    report.record_transfer(alloc.vcpu, following.vcpu, alloc.length)
            elif prev_touches:
                allocations[index - 1] = Allocation(
                    previous.start, alloc.end, previous.vcpu
                )
                report.record_transfer(alloc.vcpu, previous.vcpu, alloc.length)
            elif next_touches:
                allocations[index + 1] = Allocation(
                    alloc.start, following.end, following.vcpu
                )
                report.record_transfer(alloc.vcpu, following.vcpu, alloc.length)
            else:
                report.record_transfer(alloc.vcpu, None, alloc.length)
                report.dropped_count += 1
            del allocations[index]
            changed = True
            break  # restart the scan on the mutated list

    result = CoreTable(cpu=table.cpu, length_ns=table.length_ns, allocations=allocations)
    result.validate_layout()
    return result, report


def idle_intervals(table: CoreTable) -> List[Tuple[int, int]]:
    """Gaps between allocations (plus leading/trailing idle), time-ordered.

    Used by analysis tooling and the second-level scheduler model to
    reason about spare capacity on a core.
    """
    gaps: List[Tuple[int, int]] = []
    cursor = 0
    for alloc in table.allocations:
        if alloc.start > cursor:
            gaps.append((cursor, alloc.start))
        cursor = alloc.end
    if cursor < table.length_ns:
        gaps.append((cursor, table.length_ns))
    return gaps
