"""Table cache for recurring VM configurations.

Sec. 7.1: "it is trivially possible to centrally cache tables for common
configurations that are frequently reused."  In a cloud offering a small
set of regularly sized service tiers, most planner invocations see a
census that differs from a previous one only in VM *names* — the
(utilization, latency, capped) multiset is identical.  This cache keys
on that multiset (plus the topology) and binds the cached table's
segments to the new names, reducing a replan to a dictionary lookup
plus a rename.

Which cached vCPU each new vCPU replaces is free, as long as both hold
the same reservation.  Given the plan serving now as a base, a hit keeps
the base's placement wherever the cached layout allows it (see
:func:`rebind_plan`): a replan then changes only the cores it must, a
delta push carries only those, and the hit itself does Python work only
for the vCPUs of those cores.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from itertools import chain, compress, filterfalse
from operator import attrgetter, ne
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.params import VCpuSpec
from repro.core.planner import PlanResult, PlanStats, Planner
from repro.core.table import Segments
from repro.core.tasks import PeriodicTask

#: A vCPU's reservation: (utilization, latency, capped).  Utilization is
#: the exact float the planner costs tasks from, never a rounding of it.
_Reservation = Tuple[float, int, bool]
_Signature = Tuple[_Reservation, ...]
#: All of a :class:`VCpuSpec` but its name: two specs of one name are
#: equal exactly when their keys are.
_SpecKey = Tuple[float, int, bool, str]

#: A core's segments and the reservations of its slots (see :class:`_Keys`).
_CoreKey = Tuple[Segments, Tuple[Optional[_Reservation], ...]]

_reservation = attrgetter("utilization", "latency_ns", "capped")
_spec_key = attrgetter("utilization", "latency_ns", "capped", "vm")
_name = attrgetter("name")


def census_signature(vcpus: Sequence[VCpuSpec]) -> _Signature:
    """Order-independent fingerprint of a vCPU census."""
    return tuple(sorted(map(_reservation, vcpus)))


@dataclass(frozen=True)
class _Keys:
    """What a table-cache hit compares of a plan (its ``rebind_keys``)."""

    #: Each vCPU's spec key, by name.
    specs: Dict[str, _SpecKey]
    #: Per cpu, the core's segments and the reservation of each name of
    #: its :meth:`~repro.core.table.CoreTable.slot_names` (``None`` for
    #: an explicit idle record).
    cores: Dict[int, _CoreKey]
    #: The cpus that serve a vCPU with more than one home core.
    split: FrozenSet[int]


def _keys(plan: PlanResult) -> _Keys:
    """``plan``'s :class:`_Keys`, derived on first need."""
    keys = plan.rebind_keys
    if keys is None:
        vcpus = plan.vcpus
        reservations = dict(zip(vcpus, map(_reservation, vcpus.values())))
        table = plan.table
        homes = table.home_cores.values()
        keys = plan.rebind_keys = _Keys(
            dict(zip(vcpus, map(_spec_key, vcpus.values()))),
            {
                cpu: (core.segments, tuple(map(reservations.get, core.slot_names())))
                for cpu, core in table.cores.items()
            },
            frozenset(
                chain.from_iterable(compress(homes, map((1).__lt__, map(len, homes))))
            ),
        )
    assert isinstance(keys, _Keys)
    return keys


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

    * With a ``base`` (the plan serving now), a cached core that holds
      the schedule of the base core at its cpu, up to a relabelling of
      the vCPUs (:meth:`~repro.core.table.Segments.relabels`), takes
      the base core's names, when every one of those vCPUs is still in
      the census with the slot's reservation and neither side of any
      slot was paired otherwise on an earlier core (cores in cpu order).
      A core matches all or nothing, and a split (C=D) vCPU keeps one
      name on every core it is served on.  A kept core *is* the base's
      ``CoreTable``.  When none of its vCPUs is split or changed its
      spec, its ``assignment`` list and its tasks are the base's too.
    * Every other vCPU is matched as without a base: the census, sorted
      by name, takes the cached names of each reservation from the
      largest down.

    Every other core table is bound to the cached core's segments under
    the new names (:meth:`~repro.core.table.CoreTable.renamed`), so the
    slice tables are shared and no allocation is built, and its tasks
    are renamed: every task and C=D piece (``new#k``) keeps its cost,
    period, deadline and offset, and one equal to the base's task of
    its name, spec included, is that ``PeriodicTask``.  The table is
    the base's with those cores laid over it
    (:meth:`~repro.core.table.SystemTable.patched`), so its vCPU index
    is patched for them; ``tasks`` and ``assignment`` are the base's,
    patched likewise.  Python work is done per vCPU of a core that is
    not kept whole: the kept cores are compared through per-core
    reservation tuples derived once per plan (``rebind_keys``, which
    the result takes from ``cached`` and ``base``), and the vCPUs whose
    spec changed or left are found in bulk.  The returned plan shares no
    mutable state with the cached one: its ``stats`` are its own, marked
    ``plan_cache_hit`` with a ``generation_seconds`` of 0.0, since no
    planning ran.
    """
    ordered = sorted(vcpus, key=_name)
    names = list(map(_name, ordered))
    specs = dict(zip(names, ordered))
    keys = _keys(cached)
    spec_keys = dict(zip(names, map(_spec_key, ordered)))
    table = cached.table
    # cached name -> census name, for every vCPU whose core is not kept
    # whole (whole cores keep their names and tasks as they are).
    rename: Dict[str, str] = {}
    kept: Dict[int, bool] = {}
    if base is not None and base.table.length_ns == table.length_ns:
        kept = _keep_base_cores(cached, keys, base, specs, spec_keys, rename)
    kept_names = set(rename.values())
    whole = [cpu for cpu, as_is in kept.items() if as_is]

    # The vCPUs no kept core took: those of the other cores (every vCPU
    # is served), and census vCPUs the base did not have.  Group the
    # cached ones by their reservation.
    others = [cpu for cpu in table.cores if cpu not in kept]
    pools: Dict[_Reservation, List[str]] = {}
    cached_vcpus = cached.vcpus
    for name in dict.fromkeys(
        chain.from_iterable(table.cores[cpu].served_names() for cpu in others)
    ):
        if name not in rename:
            pools.setdefault(_reservation(cached_vcpus[name]), []).append(name)
    for pool in pools.values():
        pool.sort()
    if base is None:
        free: Sequence[str] = names
    else:
        base_cores = base.table.cores
        loose = set(filterfalse(_keys(base).specs.__contains__, specs))
        for cpu in base_cores.keys() - kept.keys():
            loose.update(base_cores[cpu].served_names())
        free = sorted(loose.intersection(specs).difference(kept_names))
    for name in free:
        rename[pools[_reservation(specs[name])].pop()] = name

    changed = {
        cpu: core.renamed(rename)
        for cpu, core in table.cores.items()
        if cpu not in kept
    }
    if base is None or not kept:
        system = table.patched(changed)
    elif base.table.cores.keys() == table.cores.keys():
        system = base.table.patched(changed)
    else:
        for cpu in kept:
            changed[cpu] = base.table.cores[cpu]
        system = table.patched(changed)

    # As in a fresh plan, a whole task in ``assignment`` is the object in
    # ``tasks``; each C=D piece is its own task.  A task that equals the
    # base's, spec included, is the base's: ``PeriodicTask``'s validating
    # constructor is most of a renamed task's cost.
    base_tasks: Dict[str, PeriodicTask] = {}
    base_specs: Dict[str, _SpecKey] = {}
    if base is not None:
        base_tasks, base_specs = base.tasks, _keys(base).specs
    renamed: Dict[str, PeriodicTask] = {}

    def rename_task(task: PeriodicTask) -> PeriodicTask:
        base = task.base_name
        vcpu = rename[base]
        name = vcpu + task.name[len(base) :]
        new = renamed.get(name)
        if new is None:
            new = base_tasks.get(name)
            if (
                new is None
                or base_specs.get(vcpu) != spec_keys[vcpu]
                or new.timing != task.timing
            ):
                new = PeriodicTask(
                    name=name,
                    cost=task.cost,
                    period=task.period,
                    deadline=task.deadline,
                    offset=task.offset,
                    vcpu=specs[vcpu],
                )
            renamed[name] = new
        return new

    tasks: Dict[str, PeriodicTask] = {}
    assignment: Dict[int, List[PeriodicTask]] = {}
    if whole:
        assert base is not None
        tasks = dict(base.tasks)
        for name in list(filterfalse(specs.__contains__, base.tasks)):
            del tasks[name]
    cached_tasks = cached.tasks
    for old, name in rename.items():
        tasks[name] = rename_task(cached_tasks[old])
    base_assignment = base.assignment if base is not None and whole else {}
    for cpu, core_tasks in cached.assignment.items():
        if cpu in base_assignment and kept.get(cpu):
            assignment[cpu] = base_assignment[cpu]
        else:
            assignment[cpu] = [rename_task(task) for task in core_tasks]
    # The result's cores are the cached ones but for the kept cores,
    # which hold the cached slots' reservations on the base's segments.
    core_keys = keys.cores
    if kept:
        assert base is not None
        core_keys = dict(core_keys)
        base_keys = _keys(base).cores
        for cpu, as_is in kept.items():
            if as_is:
                core_keys[cpu] = base_keys[cpu]
            else:
                core_keys[cpu] = (base_keys[cpu][0], core_keys[cpu][1])
    old_stats = cached.stats
    result = PlanResult(
        table=system,
        tasks=tasks,
        vcpus=specs,
        assignment=assignment,
        admission=cached.admission,
        stats=PlanStats(
            method=old_stats.method,
            generation_seconds=0.0,
            num_vcpus=old_stats.num_vcpus,
            num_tasks=old_stats.num_tasks,
            split_tasks=old_stats.split_tasks,
            cluster_cores=list(old_stats.cluster_cores),
            table_bytes=old_stats.table_bytes,
            plan_cache_hit=True,
        ),
    )
    result.rebind_keys = _Keys(spec_keys, core_keys, keys.split)
    return result


def _keep_base_cores(
    cached: PlanResult,
    keys: _Keys,
    base: PlanResult,
    specs: Dict[str, VCpuSpec],
    spec_keys: Dict[str, _SpecKey],
    rename: Dict[str, str],
) -> Dict[int, bool]:
    """The cpus whose ``base`` core the hit keeps, each mapped to whether
    it is kept whole (no vCPU on it split or changed); ``rename`` (cached
    name -> census name) takes the vCPUs of the others.  See
    :func:`rebind_plan`.

    A core whose vCPUs all kept their spec matches when its reservation
    tuple equals the cached core's; only the cores of the base vCPUs
    whose spec changed or left (found in bulk) compare census
    reservations slot by slot, and only cores serving a split vCPU pair
    names one by one.
    """
    base_keys = _keys(base)
    old = base_keys.specs
    homes = base.table.home_cores
    touched: Set[int] = set()
    for name in compress(old, map(ne, map(spec_keys.get, old), old.values())):
        touched.update(homes.get(name, ()))
    split = keys.split | base_keys.split
    mine, theirs = keys.cores, base_keys.cores

    def census_reservation(name: Optional[str]) -> Optional[Tuple[object, ...]]:
        # An explicit idle record stays None; a vCPU that left, ().
        if name is None:
            return None
        spec = specs.get(name)
        return () if spec is None else _reservation(spec)

    cores = cached.table.cores
    base_cores = base.table.cores
    # census name -> cached name
    partner: Dict[str, str] = {}
    kept: Dict[int, bool] = {}
    for cpu in sorted(cores):
        key = mine[cpu]
        old_key = theirs.get(cpu)
        if old_key is None:
            continue
        if cpu in touched:
            reservations = tuple(map(census_reservation, base_cores[cpu].slot_names()))
            if reservations != key[1] or not key[0].relabels(old_key[0]):
                continue
        elif old_key is not key and (
            old_key[1] != key[1]
            or (old_key[0] is not key[0] and not key[0].relabels(old_key[0]))
        ):
            continue
        whole = cpu not in touched and cpu not in split
        if not whole:
            pairs = [
                (cached_name, name)
                for cached_name, name in zip(
                    cores[cpu].slot_names(), base_cores[cpu].slot_names()
                )
                if cached_name is not None
            ]
            if any(
                rename.get(cached_name, name) != name
                or partner.get(name, cached_name) != cached_name
                for cached_name, name in pairs
            ):
                continue
            for cached_name, name in pairs:
                rename[cached_name] = name
                partner[name] = cached_name
        kept[cpu] = whole
    return kept
