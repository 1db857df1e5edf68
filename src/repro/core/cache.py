"""Table cache for recurring VM configurations.

Sec. 7.1: "it is trivially possible to centrally cache tables for common
configurations that are frequently reused."  In a cloud offering a small
set of regularly sized service tiers, most planner invocations see a
census that differs from a previous one only in VM *names* — the
(utilization, latency, capped) multiset is identical.  This cache keys
on that multiset (plus the topology) and binds the cached table's
segments to the new names, reducing a replan to a dictionary lookup
plus an O(vCPUs) rename.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.core.params import VCpuSpec
from repro.core.planner import PlanResult, Planner
from repro.core.table import SystemTable
from repro.core.tasks import PeriodicTask

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.core.plancache import PlanStore

#: A vCPU's reservation: (utilization, latency, capped).  Utilization is
#: the exact float the planner costs tasks from, never a rounding of it.
_Reservation = Tuple[float, int, bool]
_Signature = Tuple[_Reservation, ...]


def _reservation(vcpu: VCpuSpec) -> _Reservation:
    return (vcpu.utilization, vcpu.latency_ns, vcpu.capped)


def census_signature(vcpus: Sequence[VCpuSpec]) -> _Signature:
    """Order-independent fingerprint of a vCPU census."""
    return tuple(sorted(map(_reservation, vcpus)))


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

    Matching is by reservation: each new vCPU takes over the slots of a
    cached vCPU with the identical (utilization, latency, capped).  Each
    core table is bound to the cached core's segments under the new
    names (:meth:`~repro.core.table.CoreTable.renamed`), so the slice
    tables are shared and no allocation is built; the vCPU index is
    renamed in place of a re-index.  Every task and C=D piece (``new#k``)
    keeps its cost, period, deadline and offset.  The returned plan
    shares no mutable state with the cached one.
    """
    # Group cached vCPU names by their reservation.
    pools: Dict[_Reservation, List[str]] = {}
    for name, spec in cached.vcpus.items():
        pools.setdefault(_reservation(spec), []).append(name)
    for names in pools.values():
        names.sort()

    rename: Dict[str, str] = {}
    new_specs: Dict[str, VCpuSpec] = {}
    for vcpu in sorted(vcpus, key=lambda v: v.name):
        old_name = pools[_reservation(vcpu)].pop()
        rename[old_name] = vcpu.name
        new_specs[vcpu.name] = vcpu

    table = cached.table
    system = SystemTable(
        length_ns=table.length_ns,
        cores={cpu: core.renamed(rename) for cpu, core in table.cores.items()},
        vcpu_names=[rename[name] for name in table.vcpu_names],
        home_cores={
            rename[name]: list(homes) for name, homes in table.home_cores.items()
        },
    )

    # As in a fresh plan, a whole task in ``assignment`` is the object in
    # ``tasks``; each C=D piece is its own task.
    renamed: Dict[str, PeriodicTask] = {}

    def rename_task(task: PeriodicTask) -> PeriodicTask:
        base, piece, number = task.name.partition("#")
        name = rename[base] + piece + number
        new = renamed.get(name)
        if new is None:
            new = renamed[name] = PeriodicTask(
                name=name,
                cost=task.cost,
                period=task.period,
                deadline=task.deadline,
                offset=task.offset,
                vcpu=new_specs[rename[base]],
            )
        return new

    tasks = {rename[name]: rename_task(task) for name, task in cached.tasks.items()}
    assignment = {
        core: [rename_task(task) for task in core_tasks]
        for core, core_tasks in cached.assignment.items()
    }
    return PlanResult(
        table=system,
        tasks=tasks,
        vcpus=new_specs,
        assignment=assignment,
        admission=cached.admission,
        stats=cached.stats,
    )
