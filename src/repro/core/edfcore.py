"""Columnar per-core table materialization (the planner's one core pipeline).

This is the planning-side mirror of :mod:`repro.sim.arraycore`: every
core table the planner produces comes out of :func:`run_pipeline`,
which runs Sec. 5's per-core pipeline in order:

1. the EDF kernel, over flat ``array('q')`` columns with integer task
   handles (the ready queue holds packed integers, ``deadline *
   total_jobs + seq``, and job state lives in three parallel columns
   indexed by release sequence number);
2. the budget validation of those columns against the tasks;
3. the peephole pass, when asked for (it stays object-based: it reads
   the kernel's piece-level columns as allocations and writes columns
   back);
4. piece renaming (``vm0.vcpu0#1`` -> ``vm0.vcpu0``) with adjacent
   merging;
5. threshold coalescing.

A DP-WRAP cluster core enters at stage 4 with its layout.  The result is
a name-free :class:`CoreRecord` that refers to vCPUs only by base index,
so it is cached by task *shape* and serves every core, in any planner,
whose tasks differ only in names; :meth:`CoreRecord.bind` labels it.  A
core's shape is assembled from entries each task derived once, when it
was constructed (its timing tuple and base vCPU name), so a shape-cache
hit costs a few C-level passes over the core's tasks.
The cache has one reader, :func:`lookup_core`, and one writer,
:func:`remember_core`: :func:`materialize_core` puts the pipeline behind
them for one core, and the planner for a census, whose misses it runs
serially or in a process pool.
The output equals the object pipeline of
:func:`repro.core.edf.simulate_edf`,
:func:`repro.core.table.validate_against_tasks`,
:func:`repro.core.peephole.optimize_core`, the piece rename and
:func:`repro.core.postprocess.coalesce` — the differential suite in
``tests/core/test_columnar_edf.py`` holds the two equal.  The record's
:class:`~repro.core.table.Segments` are the schedule of every table bound
to it: binding names builds no allocation, and the dispatcher's array
engine, the serializers and the slice table all read those same columns.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.peephole import PeepholeReport, optimize_core
from repro.core.postprocess import CoalesceReport
from repro.core.table import CoreTable, Segments
from repro.core.tasks import PeriodicTask
from repro.errors import ConfigurationError, PlanningError
from repro.hotpath import coldpath, hotpath

#: The planner's one per-core cache (:func:`lookup_core`).  A core's
#: record is a pure function of the task *shape* — the per-task (period,
#: cost, deadline, offset) columns plus the piece->base-vCPU grouping —
#: and of the horizon, threshold and peephole knob, never of the vCPU
#: names or the core id, which only label it.  Cores across a census
#: (and across planner instances) overwhelmingly share shapes: a
#: VM-create burst of identical tiers differs core-to-core only in
#: names, so one pipeline run serves all of them.  Only successful
#: materializations are cached — failures re-run so diagnostics carry
#: the right task names.
_SHAPE_CACHE: Dict[tuple, "CoreRecord"] = {}
_SHAPE_CACHE_SIZE = 1024

_task_base = attrgetter("base_name")
_task_timing = attrgetter("timing")


@dataclass
class CoreRecord:
    """One core's finished table, free of vCPU names and of the core id.

    vCPUs appear only as *base indices*: positions in the core's base-name
    list (:func:`base_names_of`).  Per-vCPU columns are indexed by base
    index; entries of a vCPU the core does not serve are never read.
    """

    length_ns: int
    #: The schedule, with base indices as segment ids (its ``served``
    #: ids, with their first starts, are what the vCPU index of every
    #: table bound to it reads: :func:`repro.core.table.vcpu_index`).
    segments: Segments
    #: Coalesce accounting, keyed by base index (the planner merges it
    #: into its plan's report under each bound core's names).
    coalesce: CoalesceReport
    peephole: Optional[PeepholeReport]
    #: Audit aggregates per base index, derived once per record and read
    #: by every core bound to it: total service, and the worst service
    #: gap with the wrap-around gap included (touching allocations
    #: merged, as in ``SystemTable.max_blackout_ns``; twice the table
    #: length for a base the core never serves).
    allocated: List[int]
    worst_gaps: List[int]

    def bind(self, cpu: int, names: List[str]) -> "BoundCore":
        """Label the record: ``names[i]`` is base index ``i`` on ``cpu``."""
        table = CoreTable.bound(cpu, self.length_ns, self.segments, names)
        return BoundCore(table, names, self)


@dataclass
class BoundCore:
    """A :class:`CoreRecord` under its core's vCPU names."""

    table: CoreTable
    #: Base-vCPU names; ``names[i]`` labels the record's base index ``i``.
    names: List[str]
    record: CoreRecord


@coldpath
def _raise_deadline_miss(
    cpu: int, name: str, deadline: int, now: int, remaining: int
) -> None:
    """Deadline-miss diagnostics, matching :func:`repro.core.edf.simulate_edf`."""
    if remaining == 0:
        raise PlanningError(
            f"cpu{cpu}: {name} missed deadline {deadline} (completed {now})"
        )
    raise PlanningError(
        f"cpu{cpu}: {name} cannot meet deadline "
        f"{deadline} ({remaining} ns left at {now})"
    )


@hotpath
def _edf_kernel(
    packed_releases: List[int],
    costs: List[int],
    deadlines: List[int],
    num_tasks: int,
    horizon: int,
    names: Sequence[str],
    cpu: int,
    seg_ends: array,
    seg_ids: array,
) -> None:
    """EDF simulation over packed-integer columns.

    ``packed_releases`` holds ``release * num_tasks + task_index`` in
    ascending order; the ready heap holds ``deadline * total + seq``.
    Both encodings preserve the object simulator's exact tie-breaking
    ((release, task_index) admission order, (deadline, seq) dispatch
    order) while keeping every heap element a plain integer.  Segments
    merged per task index are appended to ``seg_ends``/``seg_ids`` with
    the start implied by the previous end (gaps carry id -1), which is
    already the ``as_arrays()`` layout the dispatcher plays back.
    """
    total = len(packed_releases)
    job_task = array("q", bytes(8 * total))
    job_rem = array("q", bytes(8 * total))
    job_dl = array("q", bytes(8 * total))
    ready: List[int] = []
    now = 0
    cursor = 0  # end of the last emitted segment (0 = nothing emitted)
    release_index = 0
    seq = 0
    nseg = 0
    while release_index < total or ready:
        while release_index < total:
            packed = packed_releases[release_index]
            release = packed // num_tasks
            if release > now:
                break
            task_index = packed - release * num_tasks
            release_index += 1
            deadline = release + deadlines[task_index]
            job_task[seq] = task_index
            job_rem[seq] = costs[task_index]
            job_dl[seq] = deadline
            heappush(ready, deadline * total + seq)
            seq += 1
        if not ready:
            now = packed_releases[release_index] // num_tasks
            continue
        top = ready[0]
        job = top - (top // total) * total
        if release_index < total:
            next_release = packed_releases[release_index] // num_tasks
        else:
            next_release = horizon
        remaining = job_rem[job]
        run_until = now + remaining
        if next_release < run_until:
            run_until = next_release
        if run_until > now:
            task_index = job_task[job]
            if nseg and seg_ids[nseg - 1] == task_index and cursor == now:
                seg_ends[nseg - 1] = run_until
            else:
                if now > cursor:
                    seg_ends.append(now)
                    seg_ids.append(-1)
                    nseg += 1
                seg_ends.append(run_until)
                seg_ids.append(task_index)
                nseg += 1
            cursor = run_until
        job_rem[job] = remaining - (run_until - now)
        now = run_until
        if job_rem[job] == 0:
            heappop(ready)
            if now > job_dl[job]:
                _raise_deadline_miss(cpu, names[job_task[job]], job_dl[job], now, 0)
        elif now >= job_dl[job]:
            _raise_deadline_miss(
                cpu, names[job_task[job]], job_dl[job], now, job_rem[job]
            )
    if cursor < horizon:
        seg_ends.append(horizon)
        seg_ids.append(-1)


def _packed_releases(
    tasks: Sequence[PeriodicTask], horizon: int
) -> Tuple[List[int], List[int], List[int]]:
    """Per-task columns plus the sorted packed release list."""
    num_tasks = len(tasks)
    costs: List[int] = []
    deadlines: List[int] = []
    packed: List[int] = []
    for index, task in enumerate(tasks):
        if horizon % task.period != 0:
            raise ConfigurationError(
                f"horizon {horizon} is not a multiple of {task.name}'s "
                f"period {task.period}"
            )
        costs.append(task.cost)
        deadlines.append(task.deadline or task.period)
        period = task.period
        offset = task.offset
        for k in range(horizon // period):
            packed.append((k * period + offset) * num_tasks + index)
    packed.sort()
    return packed, costs, deadlines


def _validate_columns(
    seg_ends: array,
    seg_ids: array,
    tasks: Sequence[PeriodicTask],
    horizon: int,
    cpu: int,
) -> None:
    """Columnar twin of :func:`repro.core.table.validate_against_tasks`.

    Splits the gap-free segment columns into per-task interval lists
    (already time-ordered and per-task merged, exactly like
    ``service_intervals``) and runs the identical pointer sweep.
    """
    per_task: List[List[Tuple[int, int]]] = [[] for _ in tasks]
    cursor = 0
    for k in range(len(seg_ends)):
        end = seg_ends[k]
        task_index = seg_ids[k]
        if task_index >= 0:
            per_task[task_index].append((cursor, end))
        cursor = end
    for task_index, task in enumerate(tasks):
        intervals = per_task[task_index]
        job_count = horizon // task.period
        count = len(intervals)
        cursor = 0
        deadline_rel = task.deadline or task.period
        for k in range(job_count):
            release = k * task.period + task.offset
            deadline = release + deadline_rel
            while cursor < count and intervals[cursor][1] <= release:
                cursor += 1
            served = 0
            index = cursor
            while index < count:
                start, end = intervals[index]
                if start >= deadline:
                    break
                lo = release if start < release else start
                hi = deadline if end > deadline else end
                if hi > lo:
                    served += hi - lo
                index += 1
            if served < task.cost:
                raise PlanningError(
                    f"cpu{cpu}: job {k} of {task.name} got {served} ns "
                    f"of {task.cost} ns before its deadline at {deadline}"
                )


def _peephole(
    seg_ends: array,
    seg_ids: array,
    tasks: Sequence[PeriodicTask],
    horizon: int,
    cpu: int,
) -> Tuple[array, array, PeepholeReport]:
    """The peephole stage: :func:`optimize_core` over the kernel's columns.

    The piece-level columns become allocations named after the tasks
    (the table ``simulate_edf`` builds), the pass rewrites them, and the
    result goes back to columns indexed by task position.
    """
    names = [task.name for task in tasks]
    segments = Segments.from_columns(seg_ends, seg_ids)
    table = CoreTable.bound(cpu, horizon, segments, names)
    optimized, report = optimize_core(table, tasks)
    index_of = {name: index for index, name in enumerate(names)}
    _starts, ends, ids = optimized.as_arrays(index_of.__getitem__)
    return ends, ids, report


def _rename_merge(
    seg_ends: array,
    seg_ids: array,
    base_of: List[int],
    report: CoalesceReport,
) -> Tuple[List[int], List[int], List[int]]:
    """Rename piece ids to base-vCPU ids and merge touching same-id runs.

    Equivalent to the piece-suffix rename followed by the first
    ``merge_adjacent`` pass inside ``coalesce`` (merges are counted
    identically).  Returns mutable parallel lists (idle gaps dropped —
    idle is implicit between allocations).
    """
    starts: List[int] = []
    ends: List[int] = []
    ids: List[int] = []
    cursor = 0
    for k in range(len(seg_ends)):
        end = seg_ends[k]
        piece = seg_ids[k]
        if piece >= 0:
            base = base_of[piece]
            if ids and ids[-1] == base and ends[-1] == cursor:
                ends[-1] = end
                report.merged_count += 1
            else:
                starts.append(cursor)
                ends.append(end)
                ids.append(base)
        cursor = end
    return starts, ends, ids


def _coalesce_columns(
    starts: List[int],
    ends: List[int],
    ids: List[int],
    threshold_ns: int,
    report: CoalesceReport,
) -> Tuple[List[int], List[int], List[int]]:
    """Columnar replica of :func:`repro.core.postprocess.coalesce`.

    The fixed-point structure (merge pass, first sub-threshold victim,
    absorb/donate/drop, restart) is replicated literally so merge and
    transfer accounting — and therefore the final table — match the
    object pass bit for bit.  Transfers are recorded by base index.  The
    caller is expected to have run the first merge pass already
    (:func:`_rename_merge`).
    """
    while True:
        changed = False
        for index in range(len(starts)):
            if ends[index] - starts[index] >= threshold_ns:
                continue
            length = ends[index] - starts[index]
            vcpu = ids[index]
            prev_touches = index > 0 and ends[index - 1] == starts[index]
            next_touches = (
                index + 1 < len(starts) and starts[index + 1] == ends[index]
            )
            if prev_touches and ids[index - 1] == vcpu:
                ends[index - 1] = ends[index]
            elif next_touches and ids[index + 1] == vcpu:
                starts[index + 1] = starts[index]
            elif prev_touches and next_touches:
                # Donate to the longer neighbour (least relative impact).
                prev_len = ends[index - 1] - starts[index - 1]
                next_len = ends[index + 1] - starts[index + 1]
                if prev_len >= next_len:
                    ends[index - 1] = ends[index]
                    report.record_transfer(vcpu, ids[index - 1], length)
                else:
                    starts[index + 1] = starts[index]
                    report.record_transfer(vcpu, ids[index + 1], length)
            elif prev_touches:
                ends[index - 1] = ends[index]
                report.record_transfer(vcpu, ids[index - 1], length)
            elif next_touches:
                starts[index + 1] = starts[index]
                report.record_transfer(vcpu, ids[index + 1], length)
            else:
                report.record_transfer(vcpu, None, length)
                report.dropped_count += 1
            del starts[index]
            del ends[index]
            del ids[index]
            changed = True
            break  # restart the scan on the mutated list
        if not changed:
            return starts, ends, ids
        # Re-merge: an absorption can make two same-vCPU runs adjacent.
        merged_s: List[int] = []
        merged_e: List[int] = []
        merged_i: List[int] = []
        for k in range(len(starts)):
            if merged_i and merged_i[-1] == ids[k] and merged_e[-1] == starts[k]:
                merged_e[-1] = ends[k]
                report.merged_count += 1
            else:
                merged_s.append(starts[k])
                merged_e.append(ends[k])
                merged_i.append(ids[k])
        starts, ends, ids = merged_s, merged_e, merged_i


def _record(
    starts: List[int],
    ends: List[int],
    ids: List[int],
    num_bases: int,
    horizon: int,
    cpu: int,
    coalesce: CoalesceReport,
    peephole: Optional[PeepholeReport],
) -> CoreRecord:
    """One pass over the final allocations: layout check, segment
    columns and the per-vCPU audit aggregates."""
    seg_ends = array("q")
    seg_ids = array("q")
    first_starts = [0] * num_bases
    allocated = [0] * num_bases
    last_ends = [-1] * num_bases
    worst_gaps = [0] * num_bases
    cursor = 0
    for start, end, vcpu in zip(starts, ends, ids):
        if start < cursor:
            raise PlanningError(
                f"cpu{cpu}: allocation [{start}, {end}) overlaps its "
                f"predecessor ending at {cursor}"
            )
        if end > horizon:
            raise PlanningError(
                f"cpu{cpu}: allocation [{start}, {end}) exceeds table "
                f"length {horizon}"
            )
        if start > cursor:
            seg_ends.append(start)
            seg_ids.append(-1)
        seg_ends.append(end)
        seg_ids.append(vcpu)
        if last_ends[vcpu] < 0:
            first_starts[vcpu] = start
        elif start - last_ends[vcpu] > worst_gaps[vcpu]:
            worst_gaps[vcpu] = start - last_ends[vcpu]
        allocated[vcpu] += end - start
        last_ends[vcpu] = end
        cursor = end
    if cursor < horizon:
        seg_ends.append(horizon)
        seg_ids.append(-1)
    for vcpu, last_end in enumerate(last_ends):
        wrap = 2 * horizon if last_end < 0 else first_starts[vcpu] + horizon - last_end
        if wrap > worst_gaps[vcpu]:
            worst_gaps[vcpu] = wrap
    return CoreRecord(
        length_ns=horizon,
        segments=Segments.from_columns(seg_ends, seg_ids),
        coalesce=coalesce,
        peephole=peephole,
        allocated=allocated,
        worst_gaps=worst_gaps,
    )


def base_names_of(tasks: Sequence[PeriodicTask]) -> Tuple[List[str], List[int]]:
    """Base-vCPU name table + per-task base-id column (piece suffix stripped)."""
    base_names: List[str] = []
    base_index = {}
    base_of: List[int] = []
    for task in tasks:
        base = task.base_name
        existing = base_index.get(base)
        if existing is None:
            existing = len(base_names)
            base_index[base] = existing
            base_names.append(base)
        base_of.append(existing)
    return base_names, base_of


def lookup_core(
    tasks: Sequence[PeriodicTask],
    horizon: int,
    threshold_ns: int,
    peephole: bool,
) -> Tuple[List[str], tuple, Optional[CoreRecord]]:
    """A core's base-vCPU names, its shape, and the shape cache's record
    for that shape (``None`` on a miss).

    The shape is the cache key: everything a core's record depends on —
    horizon, threshold, peephole knob, the piece->base grouping and each
    task's timing — and nothing it does not (names, core id).  It is
    built from what each task derived at construction
    (:attr:`~repro.core.tasks.PeriodicTask.base_name` and
    :attr:`~repro.core.tasks.PeriodicTask.timing`): when no two tasks
    share a base vCPU, task ``i`` is base ``i`` and the names are the
    bases as they come, and only a core holding two pieces of one vCPU
    groups them (:func:`base_names_of`).
    """
    base_names = list(map(_task_base, tasks))
    if len(set(base_names)) == len(base_names):
        base_of: Sequence[int] = range(len(base_names))
    else:
        base_names, base_of = base_names_of(tasks)
    shape = (
        horizon,
        threshold_ns,
        peephole,
        tuple(base_of),
        tuple(map(_task_timing, tasks)),
    )
    return base_names, shape, _SHAPE_CACHE.get(shape)


def remember_core(shape: tuple, record: CoreRecord) -> CoreRecord:
    """Cache ``record`` under ``shape`` (bounded: cleared when full)."""
    if shape not in _SHAPE_CACHE and len(_SHAPE_CACHE) >= _SHAPE_CACHE_SIZE:
        _SHAPE_CACHE.clear()
    _SHAPE_CACHE[shape] = record
    return record


def clear_shape_cache() -> None:
    """Forget every cached core record (the next plan runs cold)."""
    _SHAPE_CACHE.clear()


def run_pipeline(
    tasks: Sequence[PeriodicTask],
    shape: tuple,
    cpu: int = 0,
    layout: Optional[Tuple[array, array]] = None,
) -> CoreRecord:
    """The per-core pipeline for ``tasks`` of ``shape`` (see
    :func:`lookup_core`), uncached.

    Runs the EDF kernel, the column validation, the peephole pass (when
    the shape asks for it), rename/merge and coalescing, and returns the
    name-free record.  ``layout`` — gap-free ``(ends, task indices)``
    columns, as a DP-WRAP cluster core's :meth:`CoreTable.as_arrays` —
    replaces the first three stages.  ``cpu`` only labels diagnostics.
    """
    horizon, threshold_ns, peephole, base_of, _timing = shape
    peephole_report: Optional[PeepholeReport] = None
    if layout is None:
        packed, costs, deadlines = _packed_releases(tasks, horizon)
        seg_ends = array("q")
        seg_ids = array("q")
        _edf_kernel(
            packed, costs, deadlines, len(tasks), horizon,
            [task.name for task in tasks], cpu, seg_ends, seg_ids,
        )
        _validate_columns(seg_ends, seg_ids, tasks, horizon, cpu)
        if peephole:
            seg_ends, seg_ids, peephole_report = _peephole(
                seg_ends, seg_ids, tasks, horizon, cpu
            )
    else:
        seg_ends, seg_ids = layout
    coalesce = CoalesceReport()
    starts, ends, ids = _rename_merge(seg_ends, seg_ids, base_of, coalesce)
    starts, ends, ids = _coalesce_columns(starts, ends, ids, threshold_ns, coalesce)
    num_bases = max(base_of, default=-1) + 1
    return _record(
        starts, ends, ids, num_bases, horizon, cpu, coalesce, peephole_report
    )


def materialize_core(
    tasks: Sequence[PeriodicTask],
    horizon: int,
    threshold_ns: int,
    peephole: bool = False,
    cpu: int = 0,
    layout: Optional[Tuple[array, array]] = None,
) -> CoreRecord:
    """One core's record through the shape cache: the cached record of
    the tasks' shape, or else :func:`run_pipeline`'s, which is then
    cached.

    A record finished from a ``layout`` is not cached.  The planner runs
    the same steps over a whole census, so that its misses can share a
    process pool.
    """
    _names, shape, record = lookup_core(tasks, horizon, threshold_ns, peephole)
    if layout is not None:
        return run_pipeline(tasks, shape, cpu, layout)
    if record is None:
        record = remember_core(shape, run_pipeline(tasks, shape, cpu))
    return record


def estimate_jobs(tasks: Sequence[PeriodicTask], horizon: int) -> int:
    """Release count of one hyperperiod (the materialization cost driver)."""
    jobs = 0
    for task in tasks:
        jobs += horizon // task.period
    return jobs


__all__ = [
    "BoundCore",
    "CoreRecord",
    "base_names_of",
    "estimate_jobs",
    "lookup_core",
    "materialize_core",
    "remember_core",
    "run_pipeline",
]
