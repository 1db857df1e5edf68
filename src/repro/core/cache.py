"""Table cache for recurring VM configurations.

Sec. 7.1: "it is trivially possible to centrally cache tables for common
configurations that are frequently reused."  In a cloud offering a small
set of regularly sized service tiers, most planner invocations see a
census that differs from a previous one only in VM *names* — the
(utilization, latency, capped) multiset is identical.  This cache keys
on that multiset (plus the topology) and binds the cached table's
segments to the new names, reducing a replan to a dictionary lookup
plus an O(vCPUs) rename.

Which cached vCPU each new vCPU replaces is free, as long as both hold
the same reservation.  Given the plan serving now as a base, a hit keeps
the base's placement wherever the cached layout allows it (see
:func:`rebind_plan`): a replan then changes only the cores it must, and
a delta push carries only those.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.params import VCpuSpec
from repro.core.planner import PlanResult, PlanStats, Planner
from repro.core.table import CoreTable, SystemTable
from repro.core.tasks import PeriodicTask

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
    """

    def __init__(self, planner: Planner, capacity: int = 64) -> None:
        self.planner = planner
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: "OrderedDict[_Signature, PlanResult]" = OrderedDict()

    def plan(
        self, vcpus: Sequence[VCpuSpec], base: Optional[PlanResult] = None
    ) -> PlanResult:
        """Plan for ``vcpus``, reusing a cached same-shape table if any.

        A hit is rebound onto ``vcpus`` keeping ``base``'s placement where
        it can (:func:`rebind_plan`); a miss is planned from scratch.
        """
        signature = census_signature(vcpus)
        cached = self._entries.get(signature)
        if cached is not None:
            self._entries.move_to_end(signature)
            self.stats.hits += 1
            return rebind_plan(cached, vcpus, base)
        self.stats.misses += 1
        result = self.planner.plan(list(vcpus))
        self._entries[signature] = result
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        return result

    def __len__(self) -> int:
        return len(self._entries)


def rebind_plan(
    cached: PlanResult,
    vcpus: Sequence[VCpuSpec],
    base: Optional[PlanResult] = None,
) -> PlanResult:
    """Rename a cached plan's vCPUs onto a same-shape census.

    Each new vCPU takes over the slots of a cached vCPU with the
    identical (utilization, latency, capped).  Any such renaming is a
    valid plan for the census: every slot goes to a vCPU whose task is
    costed exactly as the cached one was, so every guarantee the cached
    plan was audited for carries over, and the renaming only chooses
    which valid plan is returned.  It is chosen in two steps:

    * With a ``base`` (the plan serving now), a cached core whose
      segments equal the base core at its cpu takes the base core's
      names, when every one of those vCPUs is still in the census with
      the slot's reservation and neither side of any slot was paired
      otherwise on an earlier core (cores in cpu order).  A core matches
      all or nothing, and a split (C=D) vCPU keeps one name on every
      core it is served on.  A kept core *is* the base's ``CoreTable``,
      so a delta push leaves it out, and a kept whole task is the base's
      ``PeriodicTask`` when it is equal.
    * Every other vCPU is matched as without a base: the census, sorted
      by name, takes the cached names of each reservation from the
      largest down.

    Every other core table is bound to the cached core's segments under
    the new names (:meth:`~repro.core.table.CoreTable.renamed`), so the
    slice tables are shared and no allocation is built; the vCPU index
    is renamed in place of a re-index.  Every task and C=D piece
    (``new#k``) keeps its cost, period, deadline and offset.  The
    returned plan shares no mutable state with the cached one: its
    ``stats`` are its own, marked ``plan_cache_hit`` with a
    ``generation_seconds`` of 0.0, since no planning ran.
    """
    specs = {vcpu.name: vcpu for vcpu in sorted(vcpus, key=lambda v: v.name)}
    # cached name -> census name
    rename: Dict[str, str] = {}
    kept: Dict[int, CoreTable] = {}
    if base is not None:
        kept = _keep_base_cores(cached, specs, base.table, rename)
    kept_names = set(rename.values())

    # Group the other cached vCPU names by their reservation.
    pools: Dict[_Reservation, List[str]] = {}
    for name, spec in cached.vcpus.items():
        if name not in rename:
            pools.setdefault(_reservation(spec), []).append(name)
    for names in pools.values():
        names.sort()
    for name, vcpu in specs.items():
        if name not in kept_names:
            rename[pools[_reservation(vcpu)].pop()] = name

    table = cached.table
    system = SystemTable(
        length_ns=table.length_ns,
        cores={
            cpu: kept[cpu] if cpu in kept else core.renamed(rename)
            for cpu, core in table.cores.items()
        },
        vcpu_names=[rename[name] for name in table.vcpu_names],
        home_cores={
            rename[name]: list(homes) for name, homes in table.home_cores.items()
        },
    )

    # As in a fresh plan, a whole task in ``assignment`` is the object in
    # ``tasks``; each C=D piece is its own task.  A kept task that equals
    # the base's is the base's: ``PeriodicTask``'s validating constructor
    # is most of a hit's rename cost.
    base_tasks = base.tasks if base is not None and kept else {}
    renamed: Dict[str, PeriodicTask] = {}

    def rename_task(task: PeriodicTask) -> PeriodicTask:
        vcpu, piece, number = task.name.partition("#")
        name = rename[vcpu] + piece + number
        new = renamed.get(name)
        if new is None:
            spec = specs[rename[vcpu]]
            new = base_tasks.get(name) if name in kept_names else None
            if new is None or (
                new.cost,
                new.period,
                new.deadline,
                new.offset,
                new.vcpu,
            ) != (task.cost, task.period, task.deadline, task.offset, spec):
                new = PeriodicTask(
                    name=name,
                    cost=task.cost,
                    period=task.period,
                    deadline=task.deadline,
                    offset=task.offset,
                    vcpu=spec,
                )
            renamed[name] = new
        return new

    tasks = {rename[name]: rename_task(task) for name, task in cached.tasks.items()}
    assignment = {
        core: [rename_task(task) for task in core_tasks]
        for core, core_tasks in cached.assignment.items()
    }
    old = cached.stats
    return PlanResult(
        table=system,
        tasks=tasks,
        vcpus=specs,
        assignment=assignment,
        admission=cached.admission,
        stats=PlanStats(
            method=old.method,
            generation_seconds=0.0,
            num_vcpus=old.num_vcpus,
            num_tasks=old.num_tasks,
            split_tasks=old.split_tasks,
            cluster_cores=list(old.cluster_cores),
            table_bytes=old.table_bytes,
            plan_cache_hit=True,
        ),
    )


def _keep_base_cores(
    cached: PlanResult,
    specs: Dict[str, VCpuSpec],
    base: SystemTable,
    rename: Dict[str, str],
) -> Dict[int, CoreTable]:
    """The cores of ``cached`` that keep the names of ``base``, each as
    ``base``'s own table; ``rename`` (cached name -> census name) takes
    their vCPUs.  See :func:`rebind_plan`."""
    kept: Dict[int, CoreTable] = {}
    if base.length_ns != cached.table.length_ns:
        return kept
    cached_specs = cached.vcpus
    # census name -> cached name
    partner: Dict[str, str] = {}
    for cpu, core in sorted(cached.table.cores.items()):
        old = base.cores.get(cpu)
        pairs = None if old is None else core.name_pairs(old)
        if pairs is None:
            continue
        for mine, theirs in pairs:
            if mine is None or theirs is None:
                # An explicit idle record pairs with one only.
                if mine is theirs:
                    continue
                break
            spec = specs.get(theirs)
            if (
                spec is None
                or _reservation(spec) != _reservation(cached_specs[mine])
                or rename.get(mine, theirs) != theirs
                or partner.get(theirs, mine) != mine
            ):
                break
        else:
            for mine, theirs in pairs:
                if mine is not None and theirs is not None:
                    rename[mine] = theirs
                    partner[theirs] = mine
            kept[cpu] = old
    return kept
