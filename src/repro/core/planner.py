"""The Tableau planner: on-demand scheduling-table generation.

This is the paper's primary contribution (Secs. 3 and 5): an
asynchronous component, invoked on VM creation/teardown/reconfiguration,
that converts per-vCPU ``(U, L)`` reservations into a cyclic scheduling
table via a progression of three increasingly powerful techniques:

1. **Partitioning** — worst-fit-decreasing assignment plus per-core EDF
   simulation (sufficient in virtually all practical cases);
2. **Semi-partitioning** — C=D task splitting for tasks that fit on no
   single core;
3. **Localized optimal scheduling** — DP-WRAP on a minimal cluster of
   "close" cores, guaranteeing success for any non-over-utilizing input.

The planner then post-processes (coalescing) and validates the result
before handing it to the dispatcher.  Slice tables are *not* built here:
the array dispatch engine plays back the planner's segment columns
directly and the object scheduler builds slices at install time, so
eager slice construction on every replan was pure waste.

Every core table — WFD and C=D cores, peephole cores, dedicated cores
and DP-WRAP cluster cores — comes out of one per-core pipeline,
:func:`repro.core.edfcore.run_pipeline`.  Replanning is incremental
at two levels.  Each core is first looked up in the pipeline's
process-wide shape cache (:func:`repro.core.edfcore.lookup_core`), so a
census that changes one VM only reruns the cores WFD handed a new task
shape, and a core whose tasks differ from an earlier one only in names
is bound to the cached record under its own names (an O(vCPUs) bind
that builds no allocation).  Cores bound to one record share its
segments, which is how the daemon's delta push finds the unchanged ones
cheaply.  Whole plans are memoized by exact census + knobs
(`_plan_memo`), so the daemon's periodic same-census regeneration is a
lookup.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.admission import AdmissionReport, admit_or_raise
from repro.core.affinity import CoschedulingPolicy, constrained_worst_fit
from repro.core.edfcore import (
    BoundCore,
    CoreRecord,
    estimate_jobs,
    lookup_core,
    remember_core,
    run_pipeline,
)
from repro.core.optimal import dp_wrap_schedule, grow_cluster
from repro.core.params import VCpuSpec, VMSpec, flatten_vcpus
from repro.core.numa import NumaReport, numa_worst_fit
from repro.core.partition import worst_fit_decreasing
from repro.core.peephole import PeepholeReport
from repro.core.periods import HYPERPERIOD_NS, MIN_PERIOD_NS
from repro.core.postprocess import DEFAULT_COALESCE_NS, CoalesceReport
from repro.core.serialize import table_size_bytes
from repro.core.splitting import DEFAULT_MIN_PIECE_NS, semi_partition
from repro.core.table import CoreTable, SystemTable
from repro.core.tasks import PeriodicTask, vcpu_to_task
from repro.errors import AdmissionError, PlanningError
from repro.topology import Topology, uniform

#: Planning methods, in escalation order.
METHOD_PARTITIONED = "partitioned"
METHOD_SEMI_PARTITIONED = "semi-partitioned"
METHOD_CLUSTERED = "clustered"

#: Estimated job releases across all uncached cores before per-core EDF
#: materialization is farmed out to worker processes.  The columnar
#: kernel materializes roughly 150k releases per second per core on the
#: reference container — about 3x the old object simulator — so the
#: fork/pickle overhead (~100 ms of pool spin-up) amortizes three times
#: later than it used to; below this bound the pool is strictly slower
#: than just running the kernels serially.
PARALLEL_MIN_JOBS = 120_000

#: Whole-plan value memo entries (exact census + knobs -> PlanResult).
PLAN_MEMO_SIZE = 4

#: vCPU -> task conversion memo bound (cleared wholesale when full).
TASK_CACHE_SIZE = 4096

#: Shape-cache misses awaiting the pipeline, one core per shape: (core,
#: tasks, shape key).
_Pending = List[Tuple[int, List[PeriodicTask], tuple]]

@dataclass
class CensusDelta:
    """One batched census change (the service layer's flush-window unit).

    ``create`` and ``reconfigure`` take :class:`VMSpec` or
    :class:`VCpuSpec` items; ``destroy`` takes VM or vCPU names.  A
    reconfigured VM keeps its position in the census (so unrelated
    cores keep their WFD packing); creates append.
    """

    create: Sequence[Union[VMSpec, VCpuSpec]] = ()
    reconfigure: Sequence[Union[VMSpec, VCpuSpec]] = ()
    destroy: Sequence[str] = ()


@dataclass
class PlanStats:
    """Bookkeeping about one planning run (feeds Figs. 3 and 4)."""

    method: str
    generation_seconds: float
    num_vcpus: int
    num_tasks: int
    split_tasks: int = 0
    cluster_cores: List[int] = field(default_factory=list)
    table_bytes: int = 0
    coalesce: CoalesceReport = field(default_factory=CoalesceReport)
    peephole: Optional[PeepholeReport] = None
    compensated_vcpus: List[str] = field(default_factory=list)
    #: True when this plan was not generated but rebound from a cached
    #: same-shape plan (:func:`repro.core.cache.rebind_plan`) or served
    #: from ``scenarios.plan_for``'s memo; such a hit has stats of its
    #: own, with a ``generation_seconds`` of 0.0, as no planning ran.
    plan_cache_hit: bool = False


@dataclass
class PlanResult:
    """A generated system table plus everything needed to reason about it."""

    table: SystemTable
    tasks: Dict[str, PeriodicTask]
    vcpus: Dict[str, VCpuSpec]
    assignment: Dict[int, List[PeriodicTask]]
    admission: AdmissionReport
    stats: PlanStats
    #: What a table-cache hit compares of this plan as its cached entry
    #: or its base (:func:`repro.core.cache.rebind_plan`): derived on the
    #: first hit that reads it, or set by the hit that made it.
    rebind_keys: Optional[object] = field(
        default=None, init=False, repr=False, compare=False
    )

    def task_of(self, vcpu_name: str) -> PeriodicTask:
        return self.tasks[vcpu_name]


class Planner:
    """On-demand table generator for a fixed machine topology.

    Args:
        topology: The machine (or an integer shorthand for an
            N-core single-socket machine).
        hyperperiod_ns: Table length; must have a rich divisor structure
            (the default is the paper's 102,702,600 ns).
        min_period_ns: Smallest enforceable period.
        coalesce_threshold_ns: Allocations shorter than this are merged
            away in post-processing.
        min_piece_ns: Smallest C=D piece semi-partitioning may create.
        strict_latency: Reject (rather than clamp) infeasible latency
            goals.
        policy: Optional co-scheduling constraints (affinity /
            anti-affinity groups; Sec. 5's "encourage or discourage
            co-scheduling" post-processing extension).
        peephole: Run the preemption-reducing peephole pass on every
            core table (Sec. 5's suggested optimization), as a stage of
            the per-core pipeline.
        split_compensation: Inflate the utilization of vCPUs that ended
            up split across cores by this fraction, compensating their
            migration overhead (Sec. 7.5's suggested remedy); applied in
            a single replanning retry.
        rotation: Rotates which equal-utilization vCPU gets split when
            splitting is unavoidable (Sec. 7.5's "take a turn" remedy);
            the daemon bumps this on periodic regeneration.
        numa: Prefer placing each VM's vCPUs on a single socket (the
            NUMA-aware extension of Sec. 8); locality is best-effort and
            placement falls back to plain worst-fit when a VM cannot fit
            one socket.
        parallel: Materialize per-core EDF schedules in worker processes
            when the task system is large enough to amortize the pool
            (see ``PARALLEL_MIN_JOBS``); the result is bit-identical to
            the serial path, so this is purely a wall-clock knob.  The
            pool never engages on single-CPU hosts, where it can only
            lose.

    The planner memoizes at two levels: each core's name-free record in
    the process-wide shape cache (so replanning an incrementally changed
    census only reruns cores handed a new task shape), and whole plans
    keyed by the exact census plus every knob (so periodic same-census
    regeneration is a dictionary lookup).  ``core_cache_hits`` and
    ``core_cache_misses`` count shape-cache lookups per core.
    """

    def __init__(
        self,
        topology: Union[Topology, int],
        hyperperiod_ns: int = HYPERPERIOD_NS,
        min_period_ns: int = MIN_PERIOD_NS,
        coalesce_threshold_ns: int = DEFAULT_COALESCE_NS,
        min_piece_ns: int = DEFAULT_MIN_PIECE_NS,
        strict_latency: bool = True,
        policy: Optional[CoschedulingPolicy] = None,
        peephole: bool = False,
        split_compensation: float = 0.0,
        rotation: int = 0,
        numa: bool = False,
        parallel: bool = True,
    ) -> None:
        if isinstance(topology, int):
            topology = uniform(topology)
        self.topology = topology
        self.hyperperiod_ns = hyperperiod_ns
        self.min_period_ns = min_period_ns
        self.coalesce_threshold_ns = coalesce_threshold_ns
        self.min_piece_ns = min_piece_ns
        self.strict_latency = strict_latency
        self.policy = policy
        self.peephole = peephole
        self.split_compensation = split_compensation
        self.rotation = rotation
        self.numa = numa
        self.parallel = parallel
        self.last_numa_report: Optional[NumaReport] = None
        #: The topology's guest cores, read once (each read of the
        #: property builds a new list).
        self._guest_cores = topology.guest_cores
        self.core_cache_hits = 0
        self.core_cache_misses = 0
        self._plan_memo: "OrderedDict[Tuple, PlanResult]" = OrderedDict()
        self.plan_memo_hits = 0
        self.plan_memo_misses = 0
        self._task_cache: Dict[VCpuSpec, PeriodicTask] = {}
        #: The census last planned, the base `plan_delta` diffs against.
        self._census: Optional[List[VCpuSpec]] = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def plan(
        self,
        workload: Union[Sequence[VMSpec], Sequence[VCpuSpec], CensusDelta],
    ) -> PlanResult:
        """Generate a validated system table for a set of VMs (or vCPUs).

        Also accepts a :class:`CensusDelta`, which is applied to the
        previously planned census (see :meth:`plan_delta`).
        """
        if isinstance(workload, CensusDelta):
            return self.plan_delta(workload)
        vcpus = self._as_vcpus(workload)
        result = self._plan_once(vcpus)
        if self.split_compensation > 0.0 and result.stats.split_tasks:
            compensated = self._compensate(result)
            if compensated is not None:
                result = compensated
        self._census = vcpus
        return result

    def plan_delta(self, delta: CensusDelta) -> PlanResult:
        """Replan after a census diff against the previous census.

        Equivalent to editing the census by hand and calling
        :meth:`plan` — the differential suite holds the two bit-equal —
        but states the *intent*: a core WFD handed the same tasks as
        before is bound to the same segments, which is what the daemon's
        delta push leaves out.
        """
        base = self._census
        if base is None:
            raise PlanningError(
                "delta replan without a base census (call plan() first)"
            )
        return self.plan(self._apply_delta(base, delta))

    def _apply_delta(
        self, base: Sequence[VCpuSpec], delta: CensusDelta
    ) -> List[VCpuSpec]:
        """The previous census with ``delta`` applied, order-preserving."""
        census = list(base)
        for token in delta.destroy:
            kept = [v for v in census if v.name != token and v.vm != token]
            if len(kept) == len(census):
                raise PlanningError(
                    f"delta destroy of unknown vCPU/VM {token!r}"
                )
            census = kept
        for item in delta.reconfigure:
            if isinstance(item, VMSpec):
                name = item.name
                indices = [i for i, v in enumerate(census) if v.vm == name]
                replacement = list(item.vcpus)
            else:
                name = item.name
                indices = [i for i, v in enumerate(census) if v.name == name]
                replacement = [item]
            if not indices:
                raise PlanningError(
                    f"delta reconfigure of unknown vCPU/VM {name!r}"
                )
            first = indices[0]
            for i in reversed(indices):
                del census[i]
            census[first:first] = replacement
        existing = {v.name for v in census}
        for item in delta.create:
            created = item.vcpus if isinstance(item, VMSpec) else [item]
            for vcpu in created:
                if vcpu.name in existing:
                    raise PlanningError(
                        f"delta create of duplicate vCPU {vcpu.name!r}"
                    )
                existing.add(vcpu.name)
                census.append(vcpu)
        return census

    def _compensate(self, result: PlanResult) -> Optional[PlanResult]:
        """Replan with split vCPUs' utilization inflated (Sec. 7.5)."""
        split_names = [
            name for name in result.vcpus if result.table.is_split(name)
        ]
        inflated: List[VCpuSpec] = []
        for name, spec in result.vcpus.items():
            if name in split_names:
                boosted = min(1.0, spec.utilization * (1 + self.split_compensation))
                inflated.append(
                    VCpuSpec(
                        name=spec.name,
                        utilization=boosted,
                        latency_ns=spec.latency_ns,
                        capped=spec.capped,
                        vm=spec.vm,
                    )
                )
            else:
                inflated.append(spec)
        try:
            retry = self._plan_once(inflated)
        except (AdmissionError, PlanningError):
            # The inflated census no longer fits; keep the original plan
            # (uncompensated splits beat a failed reconfiguration).
            return None
        retry.stats.compensated_vcpus = split_names
        return retry

    def _plan_once(self, vcpus: List[VCpuSpec]) -> PlanResult:
        # Wall time is measured only to report planner generation cost
        # (PlanStats.generation_seconds); it never feeds scheduling state.
        started = time.perf_counter()  # repro: allow[det-wallclock]
        memo_key: Optional[Tuple] = None
        if self.policy is None and not self.numa:
            memo_key = (
                tuple(vcpus),
                self.hyperperiod_ns,
                self.min_period_ns,
                self.coalesce_threshold_ns,
                self.min_piece_ns,
                self.strict_latency,
                self.peephole,
                self.rotation,
            )
            cached = self._plan_memo.get(memo_key)
            if cached is not None:
                self._plan_memo.move_to_end(memo_key)
                self.plan_memo_hits += 1
                return self._reissue_plan(cached, started)
            self.plan_memo_misses += 1
        guest_cores = self._guest_cores
        admission = admit_or_raise(
            vcpus, len(guest_cores), self.hyperperiod_ns, self.min_period_ns
        )

        dedicated = [v for v in vcpus if v.needs_dedicated_core]
        shared = [v for v in vcpus if not v.needs_dedicated_core]
        # Dedicated vCPUs claim cores from the tail of the guest pool so
        # the shared pool keeps contiguous low-numbered cores.
        dedicated_cores = guest_cores[len(guest_cores) - len(dedicated) :]
        shared_cores = guest_cores[: len(guest_cores) - len(dedicated)]

        tasks = self._tasks_for(shared)
        assignment, method, cluster_cores, split_count = self._assign(
            tasks, shared_cores
        )
        task_index = {t.name: t for t in tasks}
        per_core = dict(assignment)
        cluster_tasks = per_core.pop("__cluster__", None)
        # A dedicated vCPU is a one-task core whose job fills the table.
        horizon = self.hyperperiod_ns
        for vcpu, core in zip(dedicated, dedicated_cores):
            task = PeriodicTask(
                name=vcpu.name, cost=horizon, period=horizon, vcpu=vcpu
            )
            task_index[vcpu.name] = task
            per_core[core] = [task]

        cores = self._materialize(per_core, cluster_tasks, cluster_cores)
        report = CoalesceReport()
        peephole_report = PeepholeReport(0, 0, 0, 0) if self.peephole else None
        for core in cores.values():
            # Each record's report is name-free: merged under the core's
            # names, in core order.
            report.merge(core.record.coalesce, core.names)
            part = core.record.peephole
            if peephole_report is not None and part is not None:
                peephole_report.merge(part)
        system = SystemTable(
            length_ns=horizon,
            cores={cpu: core.table for cpu, core in cores.items()},
        )
        self._validate_assembled(system)
        self._check_guarantees(system, cores, vcpus, task_index)

        stats = PlanStats(
            method=method,
            # repro: allow[det-wallclock] -- stats only, never scheduling state
            generation_seconds=time.perf_counter() - started,
            num_vcpus=len(vcpus),
            num_tasks=len(tasks),
            split_tasks=split_count,
            cluster_cores=cluster_cores,
            coalesce=report,
            peephole=peephole_report,
        )
        stats.table_bytes = table_size_bytes(system)
        result = PlanResult(
            table=system,
            tasks=task_index,
            vcpus={v.name: v for v in vcpus},
            assignment=assignment,
            admission=admission,
            stats=stats,
        )
        if memo_key is not None:
            self._plan_memo[memo_key] = result
            if len(self._plan_memo) > PLAN_MEMO_SIZE:
                self._plan_memo.popitem(last=False)
        return result

    def _reissue_plan(self, cached: PlanResult, started: float) -> PlanResult:
        """A memo hit: the cached plan under fresh, un-shared stats.

        The table/tasks/assignment are structurally shared (immutable
        after planning); the stats object is rebuilt so callers mutating
        flags (``plan_cache_hit``, ``compensated_vcpus``) cannot poison
        the memoized original.
        """
        old = cached.stats
        # A whole-plan hit reuses every core table, so it counts as a
        # full sweep of shape-cache hits (and zero new simulations).
        self.core_cache_hits += len(cached.table.cores)
        stats = PlanStats(
            method=old.method,
            # repro: allow[det-wallclock] -- stats only, never scheduling state
            generation_seconds=time.perf_counter() - started,
            num_vcpus=old.num_vcpus,
            num_tasks=old.num_tasks,
            split_tasks=old.split_tasks,
            cluster_cores=list(old.cluster_cores),
            table_bytes=old.table_bytes,
            coalesce=old.coalesce,
            peephole=old.peephole,
        )
        return PlanResult(
            table=cached.table,
            tasks=cached.tasks,
            vcpus=cached.vcpus,
            assignment=cached.assignment,
            admission=cached.admission,
            stats=stats,
        )

    # ------------------------------------------------------------------
    # Stages
    # ------------------------------------------------------------------

    def _as_vcpus(
        self, workload: Union[Sequence[VMSpec], Sequence[VCpuSpec]]
    ) -> List[VCpuSpec]:
        items = list(workload)
        if items and isinstance(items[0], VMSpec):
            return flatten_vcpus(items)
        return list(items)  # type: ignore[arg-type]

    def _tasks_for(self, shared: Sequence[VCpuSpec]) -> List[PeriodicTask]:
        """Memoized :func:`repro.core.tasks.vcpus_to_tasks`.

        The (U, L) -> (C, T) conversion bisects the hyperperiod divisor
        list per vCPU; under churn the same specs recur plan after plan,
        so the finished (frozen) tasks are cached by spec.
        """
        cache = self._task_cache
        tasks: List[PeriodicTask] = []
        for spec in shared:
            task = cache.get(spec)
            if task is None:
                task = vcpu_to_task(
                    spec,
                    self.hyperperiod_ns,
                    self.min_period_ns,
                    self.strict_latency,
                )
                if len(cache) >= TASK_CACHE_SIZE:
                    cache.clear()
                cache[spec] = task
            tasks.append(task)
        return tasks

    def _assign(
        self, tasks: Sequence[PeriodicTask], cores: Sequence[int]
    ):
        """The three-stage progression; returns assignment and metadata."""
        if not tasks:
            return {core: [] for core in cores}, METHOD_PARTITIONED, [], 0
        if not cores:
            raise PlanningError("no shared cores left for non-dedicated vCPUs")

        if self.policy is not None:
            constrained = constrained_worst_fit(tasks, cores, self.policy)
            if constrained.success:
                return constrained.assignment, METHOD_PARTITIONED, [], 0
            raise PlanningError(
                "co-scheduling constraints could not be satisfied for "
                + ", ".join(t.name for t in constrained.unassigned)
            )

        if self.numa:
            local, numa_report = numa_worst_fit(tasks, cores, self.topology)
            if local.success:
                self.last_numa_report = numa_report
                return local.assignment, METHOD_PARTITIONED, [], 0
            # Fall through: locality is a preference, not a guarantee.

        partitioned = worst_fit_decreasing(tasks, cores, rotation=self.rotation)
        if partitioned.success:
            return partitioned.assignment, METHOD_PARTITIONED, [], 0

        semi = semi_partition(
            tasks,
            cores,
            self.hyperperiod_ns,
            min_piece_ns=self.min_piece_ns,
            rotation=self.rotation,
        )
        if semi.success:
            return (
                semi.assignment,
                METHOD_SEMI_PARTITIONED,
                [],
                semi.split_count,
            )

        # Localized optimal scheduling: restart from the plain partition and
        # cover the leftovers with a minimal DP-WRAP cluster.  Loads are
        # exact, as in DP-WRAP itself: a float sum can round a cluster at
        # exactly full capacity below its demand.
        loads = {
            core: sum(Fraction(t.cost, t.period) for t in partitioned.assignment[core])
            for core in cores
        }
        demand = sum(Fraction(t.cost, t.period) for t in partitioned.unassigned)
        cluster = grow_cluster(loads, self.topology.socket_map, demand)
        assignment = {
            core: list(ts)
            for core, ts in partitioned.assignment.items()
            if core not in cluster
        }
        cluster_tasks = list(partitioned.unassigned)
        for core in cluster:
            cluster_tasks.extend(partitioned.assignment[core])
        for core in cluster:
            assignment[core] = []
        assignment["__cluster__"] = cluster_tasks  # type: ignore[index]
        return assignment, METHOD_CLUSTERED, cluster, 0

    def _materialize(
        self,
        per_core: Dict[int, List[PeriodicTask]],
        cluster_tasks: Optional[List[PeriodicTask]],
        cluster_cores: List[int],
    ) -> Dict[int, BoundCore]:
        """Every core's record, from the shape cache or the pipeline.

        Each core is looked up in the shape cache first
        (:func:`~repro.core.edfcore.lookup_core`); only the misses run
        the pipeline, serially or (for large task systems on multi-CPU
        hosts) in a process pool — all paths produce bit-identical
        records — and are cached here.  Each record is then bound to its
        core's names (:meth:`CoreRecord.bind`).  Cluster cores run the
        pipeline's last stages on their DP-WRAP layout, uncached.
        """
        horizon = self.hyperperiod_ns
        threshold_ns = self.coalesce_threshold_ns
        cores: Dict[int, BoundCore] = {}
        pending: Dict[tuple, Tuple[int, List[PeriodicTask]]] = {}
        missed: List[Tuple[int, List[str], tuple]] = []
        for core, tasks in per_core.items():
            names, shape, record = lookup_core(
                tasks, horizon, threshold_ns, self.peephole
            )
            if record is not None:
                self.core_cache_hits += 1
                cores[core] = record.bind(core, names)
                continue
            self.core_cache_misses += 1
            # Cores of one missed shape share one pipeline run.
            pending.setdefault(shape, (core, tasks))
            missed.append((core, names, shape))
        runs = self._materialize_pending(
            [(core, tasks, shape) for shape, (core, tasks) in pending.items()]
        )
        records = {
            shape: remember_core(shape, record) for shape, record in zip(pending, runs)
        }
        for core, names, shape in missed:
            cores[core] = records[shape].bind(core, names)

        if cluster_tasks is not None:
            # Replaces the cluster cores' empty placeholders above.
            index_of = {task.name: index for index, task in enumerate(cluster_tasks)}
            # A cluster core's record depends on its layout: never cached.
            names, shape, _cached = lookup_core(
                cluster_tasks, horizon, threshold_ns, False
            )
            layouts = dp_wrap_schedule(cluster_tasks, cluster_cores, horizon)
            for core, layout in layouts.items():
                _starts, ends, ids = layout.as_arrays(index_of.__getitem__)
                record = run_pipeline(cluster_tasks, shape, core, (ends, ids))
                cores[core] = record.bind(core, names)
        return cores

    def _materialize_pending(self, pending: _Pending) -> List[CoreRecord]:
        """Records of the cache-miss shapes, in processes when large enough."""
        if (
            self.parallel
            and len(pending) >= 2
            and (os.cpu_count() or 1) >= 2  # repro: allow[det-env-branch]
        ):
            jobs = 0
            for _core, tasks, _shape in pending:
                jobs += estimate_jobs(tasks, self.hyperperiod_ns)
            if jobs >= PARALLEL_MIN_JOBS:
                records = self._materialize_parallel(pending)
                if records is not None:
                    return records
        return [run_pipeline(tasks, shape, core) for core, tasks, shape in pending]

    def _materialize_parallel(
        self, pending: _Pending
    ) -> Optional[List[CoreRecord]]:
        """Fan cache-miss cores out to a process pool (None on failure).

        Workers run :func:`~repro.core.edfcore.run_pipeline` and return
        its name-free records, which the parent caches and binds like
        any other.  Any pool-level failure falls back to the serial
        path, which computes the identical result.
        """
        count = len(pending)
        try:
            from concurrent.futures import ProcessPoolExecutor

            # Pool sizing only: every worker computes the same tables, so
            # the plan is identical whatever cpu_count() reports.
            workers = min(count, os.cpu_count() or 1)  # repro: allow[det-env-branch]
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return list(
                    pool.map(
                        run_pipeline,
                        [tasks for _core, tasks, _shape in pending],
                        [shape for _core, _tasks, shape in pending],
                        [core for core, _tasks, _shape in pending],
                    )
                )
        except Exception:
            return None

    # ------------------------------------------------------------------
    # Assembly and audit
    # ------------------------------------------------------------------

    def _validate_assembled(self, system: SystemTable) -> None:
        """No-parallel-service check (:meth:`SystemTable.parallel_service`).

        Per-core layout was already validated when each record was
        materialized (and every table bound to it shares its segments),
        so the only whole-system hazard left is a vCPU with allocations
        on several cores overlapping itself.
        """
        overlap = system.parallel_service()
        if overlap is not None:
            name, start, end = overlap
            raise PlanningError(
                f"vCPU {name} scheduled on two cores during [{start}, {end})"
            )

    def _check_guarantees(
        self,
        system: SystemTable,
        cores: Dict[int, BoundCore],
        vcpus: Sequence[VCpuSpec],
        tasks: Dict[str, PeriodicTask],
    ) -> None:
        """Final guarantee audit: utilization and blackout per vCPU.

        Coalescing may legitimately move up to the threshold per
        allocation boundary, so both checks carry a matching tolerance.
        Single-home vCPUs (virtually all of them) are audited from their
        core record's aggregates, its service and worst gap, without
        touching any allocation; only split vCPUs pay an interval merge
        across their home cores.
        """
        tolerance = 2 * self.coalesce_threshold_ns
        horizon = self.hyperperiod_ns
        homes = system.home_cores
        for vcpu in vcpus:
            name = vcpu.name
            task = tasks[name]
            home = homes.get(name)
            if home is None:
                allocated = 0
                blackout = 2 * horizon
            elif len(home) == 1:
                core = cores[home[0]]
                base = core.names.index(name)
                allocated = core.record.allocated[base]
                blackout = core.record.worst_gaps[base]
            else:
                allocated = 0
                for cpu in home:
                    core = cores[cpu]
                    allocated += core.record.allocated[core.names.index(name)]
                blackout = _merged_blackout(system.cores, home, name, horizon)
            promised = task.cost * (horizon // task.period)
            if allocated + tolerance < promised:
                raise PlanningError(
                    f"{name}: table allocates {allocated} ns/cycle, "
                    f"promised {promised}"
                )
            if vcpu.needs_dedicated_core:
                continue
            if blackout > vcpu.latency_ns + tolerance:
                raise PlanningError(
                    f"{name}: worst-case blackout {blackout} ns exceeds "
                    f"latency goal {vcpu.latency_ns} ns"
                )


def _merged_blackout(
    core_tables: Dict[int, CoreTable],
    home: List[int],
    name: str,
    horizon: int,
) -> int:
    """Worst service gap of a split vCPU across its home cores.

    The same touching-intervals merge as
    :meth:`SystemTable.max_blackout_ns`, over just this vCPU's cores.
    """
    intervals: List[Tuple[int, int]] = []
    for cpu in home:
        intervals.extend(core_tables[cpu].service_intervals(name))
    intervals.sort()
    first_start = intervals[0][0]
    previous_end = intervals[0][1]
    worst = 0
    for start, end in intervals[1:]:
        if start <= previous_end:
            if end > previous_end:
                previous_end = end
        else:
            gap = start - previous_end
            if gap > worst:
                worst = gap
            previous_end = end
    wrap = first_start + horizon - previous_end
    return worst if worst > wrap else wrap


def plan_tables(
    workload: Union[Sequence[VMSpec], Sequence[VCpuSpec]],
    topology: Union[Topology, int],
    **planner_kwargs,
) -> PlanResult:
    """One-shot convenience wrapper around :class:`Planner`."""
    return Planner(topology, **planner_kwargs).plan(workload)
