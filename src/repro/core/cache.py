"""Table cache for recurring VM configurations.

Sec. 7.1: "it is trivially possible to centrally cache tables for common
configurations that are frequently reused."  In a cloud offering a small
set of regularly sized service tiers, most planner invocations see a
census that differs from a previous one only in VM *names* — the
(utilization, latency, capped) multiset is identical.  This cache keys
on that multiset (plus the topology) and rebinds the cached table's
allocations to the new names, reducing a replan to a dictionary lookup
plus an O(table) rename.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.core.params import VCpuSpec
from repro.core.planner import PlanResult, Planner
from repro.core.table import Allocation, CoreTable, SystemTable

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.core.plancache import PlanStore

#: Reservation signature: (utilization rounded to ppm, latency, capped).
_Signature = Tuple[Tuple[int, int, bool], ...]


def census_signature(vcpus: Sequence[VCpuSpec]) -> _Signature:
    """Order-independent fingerprint of a vCPU census."""
    return tuple(
        sorted(
            (round(v.utilization * 1_000_000), v.latency_ns, v.capped)
            for v in vcpus
        )
    )


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class TableCache:
    """An LRU cache of plans keyed by census signature.

    Args:
        planner: The planner used on cache misses.
        capacity: Maximum cached configurations.
        store: Optional on-disk :class:`~repro.core.plancache.PlanStore`
            consulted (by shape key) on in-memory misses and populated
            with fresh plans — a persistent second cache level, so a
            restarted control plane or a sibling process starts warm.
    """

    def __init__(
        self,
        planner: Planner,
        capacity: int = 64,
        store: Optional["PlanStore"] = None,
    ) -> None:
        self.planner = planner
        self.capacity = capacity
        self.store = store
        self.stats = CacheStats()
        self._entries: "OrderedDict[_Signature, PlanResult]" = OrderedDict()

    def plan(self, vcpus: Sequence[VCpuSpec]) -> PlanResult:
        """Plan for ``vcpus``, reusing a cached same-shape table if any."""
        signature = census_signature(vcpus)
        cached = self._entries.get(signature)
        if cached is not None:
            self._entries.move_to_end(signature)
            self.stats.hits += 1
            return rebind_plan(cached, vcpus)
        self.stats.misses += 1
        if self.store is not None:
            result = self.store.plan_shaped(self.planner, vcpus)
        else:
            result = self.planner.plan(list(vcpus))
        self._entries[signature] = result
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        return result

    def __len__(self) -> int:
        return len(self._entries)


def rebind_plan(cached: PlanResult, vcpus: Sequence[VCpuSpec]) -> PlanResult:
    """Rename a cached plan's vCPUs onto a same-shape census.

    Matching is by reservation signature: each new vCPU takes over the
    slots of a cached vCPU with identical (utilization, latency, capped).
    The returned plan shares no mutable state with the cached one.
    """
    # Group cached vCPU names by their reservation signature.
    pools: Dict[Tuple[int, int, bool], List[str]] = {}
    for name, spec in cached.vcpus.items():
        key = (round(spec.utilization * 1_000_000), spec.latency_ns, spec.capped)
        pools.setdefault(key, []).append(name)
    for names in pools.values():
        names.sort()

    rename: Dict[str, str] = {}
    new_specs: Dict[str, VCpuSpec] = {}
    for vcpu in sorted(vcpus, key=lambda v: v.name):
        key = (round(vcpu.utilization * 1_000_000), vcpu.latency_ns, vcpu.capped)
        old_name = pools[key].pop()
        rename[old_name] = vcpu.name
        new_specs[vcpu.name] = vcpu

    cores: Dict[int, CoreTable] = {}
    for cpu, table in cached.table.cores.items():
        if not table.slices:
            # Built once on the cached core, then shared by every rebind.
            table.build_slices()
        # Renaming moves no boundary, so the slice geometry carries over
        # (slice tables are replaced on rebuild, never mutated in place).
        cores[cpu] = CoreTable(
            cpu=cpu,
            length_ns=table.length_ns,
            allocations=[
                Allocation(
                    a.start,
                    a.end,
                    rename[a.vcpu] if a.vcpu is not None else None,
                )
                for a in table.allocations
            ],
            slice_len_ns=table.slice_len_ns,
            slices=table.slices,
            _starts=table._starts,
            _bounds=table._bounds,
        )
    system = SystemTable(length_ns=cached.table.length_ns, cores=cores)

    tasks = {
        rename[name]: task.__class__(
            name=rename[name],
            cost=task.cost,
            period=task.period,
            deadline=task.deadline,
            offset=task.offset,
            vcpu=new_specs[rename[name]],
        )
        for name, task in cached.tasks.items()
    }
    assignment = {
        core: [tasks[rename[t.name.split("#")[0]]] for t in ts]
        for core, ts in cached.assignment.items()
        if core != "__cluster__"
    }
    return PlanResult(
        table=system,
        tasks=tasks,
        vcpus=new_specs,
        assignment=assignment,
        admission=cached.admission,
        stats=cached.stats,
    )
