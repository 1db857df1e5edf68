"""Scheduling-table data structures: allocations, slice tables, lookups.

A Tableau table (Fig. 2 of the paper) is, per physical core, a list of
non-overlapping, time-ordered *allocations* — intervals reserved for a
specific vCPU — plus a *slice table* that divides the cyclic timeline
into fixed-size slices for O(1) dispatch.  The slice length on each core
equals the length of that core's shortest allocation, which guarantees a
slice never overlaps more than two allocations, so a dispatch decision
touches at most two records.

A table decoded from the binary push format keeps its records as
integer columns and builds its :class:`Allocation` list only when first
read (see :meth:`CoreTable.from_records`).
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.tasks import PeriodicTask
from repro.errors import ConfigurationError, PlanningError

#: vCPU id used in serialized tables for idle intervals.
IDLE = None

#: Slice-table entry of a slice that overlaps more than two allocations
#: (only possible under a slice-length floor): lookups binary-search instead.
_CROWDED = -2

#: A decoded table's record columns: starts, ends, and each record's vCPU
#: name (``None`` for an idle record).
Records = Tuple[array, array, List[Optional[str]]]


def _no_slices() -> array:
    return array("i")


@dataclass(frozen=True)
class Allocation:
    """A half-open interval ``[start, end)`` reserved for one vCPU.

    ``vcpu`` is the vCPU name, or ``None`` for an explicitly recorded
    idle interval (tables normally encode idle implicitly as gaps, but
    post-processing may materialize idle records).
    """

    start: int
    end: int
    vcpu: Optional[str]

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ConfigurationError(
                f"bad allocation interval [{self.start}, {self.end})"
            )

    @property
    def length(self) -> int:
        return self.end - self.start


@dataclass
class CoreTable:
    """The cyclic schedule of one physical core.

    Attributes:
        cpu: Physical core index.
        length_ns: Cycle length (the table hyperperiod).
        allocations: Time-ordered, non-overlapping vCPU reservations.
        slice_len_ns: Fixed slice size for O(1) lookup (set by
            :meth:`build_slices`).
        slices: The slice table as the ``'TBLO'`` format stores it: a
            flat ``array('i')`` holding, for each slice, the indices of
            the (at most two) allocations it overlaps, first then second,
            ``-1`` for "none" and ``-2, -2`` for a crowded slice.
    """

    cpu: int
    length_ns: int
    allocations: List[Allocation] = field(default_factory=list)
    slice_len_ns: int = 0
    slices: array = field(default_factory=_no_slices)
    _starts: List[int] = field(default_factory=list, repr=False)
    #: All allocation boundaries (starts, ends, table length), sorted —
    #: precomputed by :meth:`build_slices` so ``next_boundary`` is a
    #: single bisect instead of a lookup plus a scan.
    _bounds: List[int] = field(default_factory=list, repr=False, compare=False)
    #: Last lookup memo ``(abs_from, abs_to, allocation)``: within that
    #: absolute-time window the lookup answer (and next boundary) cannot
    #: change, so consecutive dispatches in one slot are two integer
    #: compares instead of a divide + slice probe.
    _memo: Optional[Tuple[int, int, Optional[Allocation]]] = field(
        default=None, repr=False, compare=False
    )
    #: Gap-free segment columns in the :meth:`as_arrays` layout with
    #: *core-local* handles (indices into :attr:`_seg_names`; -1 = idle).
    #: Attached by the columnar planner kernels; derived lazily from the
    #: allocation list for every other table.  Sharing them is what makes
    #: plan transport zero-copy: ``as_arrays`` only translates local
    #: handles to a caller's global ids, it never rescans allocations.
    _seg_starts: Optional[array] = field(default=None, repr=False, compare=False)
    _seg_ends: Optional[array] = field(default=None, repr=False, compare=False)
    _seg_local: Optional[array] = field(default=None, repr=False, compare=False)
    _seg_names: Optional[List[str]] = field(default=None, repr=False, compare=False)
    #: Last ``as_arrays`` answer, keyed by the local->global handle map.
    _arrays_memo: Optional[Tuple[Tuple[int, ...], Tuple[array, array, array]]] = (
        field(default=None, repr=False, compare=False)
    )
    #: Shortest allocation, cached at column-attach time (tables with
    #: columns are planner-produced and never mutated afterwards).
    _min_alloc_ns: Optional[int] = field(default=None, repr=False, compare=False)
    #: Record columns of a decoded table (:meth:`from_records`); its
    #: ``allocations`` list is built from them on first read.
    _records: Optional[Records] = field(default=None, repr=False, compare=False)

    @classmethod
    def from_records(
        cls,
        cpu: int,
        length_ns: int,
        starts: array,
        ends: array,
        vcpus: List[Optional[str]],
    ) -> "CoreTable":
        """A table over validated record columns, allocations built lazily.

        ``starts``/``ends``/``vcpus`` are the time-ordered, non-overlapping
        records of a decoded push.  The :class:`Allocation` list is built
        from them on the first read of :attr:`allocations` and cached, so
        a staged table that is never dispatched never builds one.
        """
        table = cls(cpu=cpu, length_ns=length_ns, _records=(starts, ends, vcpus))
        del table.allocations  # read through _LazyAllocations from now on
        return table

    def __getstate__(self) -> Dict[str, object]:
        # Pickles hold the allocation list (a decoded table builds it
        # here), never the record columns, so a decoded table pickles
        # like any other.  Transient lookup memos are dropped (plan-store
        # entries, process-pool transfers); the segment columns travel.
        state = {name: getattr(self, name) for name in _PICKLED_FIELDS}
        state["_memo"] = None
        state["_arrays_memo"] = None
        return state

    def validate_layout(self) -> None:
        """Check ordering, bounds, and non-overlap of the allocations."""
        previous_end = 0
        for alloc in self.allocations:
            if alloc.start < previous_end:
                raise PlanningError(
                    f"cpu{self.cpu}: allocation [{alloc.start}, {alloc.end}) "
                    f"overlaps its predecessor ending at {previous_end}"
                )
            if alloc.end > self.length_ns:
                raise PlanningError(
                    f"cpu{self.cpu}: allocation [{alloc.start}, {alloc.end}) "
                    f"exceeds table length {self.length_ns}"
                )
            previous_end = alloc.end

    @property
    def busy_ns(self) -> int:
        return sum(a.length for a in self.allocations if a.vcpu is not None)

    @property
    def utilization(self) -> float:
        return self.busy_ns / self.length_ns

    def min_allocation_ns(self) -> Optional[int]:
        if self._min_alloc_ns is not None:
            return self._min_alloc_ns
        lengths = [a.end - a.start for a in self.allocations]
        return min(lengths) if lengths else None

    def build_slices(self, min_slice_len_ns: int = 1) -> None:
        """Construct the O(1) slice table.

        The slice length is the shortest allocation on this core (the
        paper's rule), floored at ``min_slice_len_ns`` as a memory
        safeguard for degenerate tables.  When the floor is applied the
        at-most-two-allocations invariant may no longer hold and lookups
        transparently fall back to binary search for affected slices.
        An always-idle core gets one slice covering the whole table.
        """
        shortest = self.min_allocation_ns()
        if shortest is None:
            slice_len = self.length_ns
        else:
            slice_len = max(shortest, min_slice_len_ns)
        allocations = self.allocations
        self.derive_slices(
            [a.start for a in allocations], [a.end for a in allocations], slice_len
        )

    def derive_slices(
        self, starts: List[int], ends: Sequence[int], slice_len: int
    ) -> None:
        """Install the slice table of ``slice_len``-ns slices over records.

        The one slice-table derivation: :meth:`build_slices` feeds it the
        allocation list, the ``'TBLO'`` decoder a push's validated record
        columns.  ``starts``/``ends`` must be time-ordered and
        non-overlapping, and ``slice_len`` at least the shortest record.

        One pass over the records: each claims the slices it covers.  Its
        interior slices hold it alone; only its two boundary slices can
        be shared, and a boundary slice that would need a third entry
        becomes the ``-2, -2`` binary-search sentinel.  The first entries
        are filled as one list, the few second entries (boundary slices
        only) are kept apart and written into the column at the end.
        """
        length = self.length_ns
        count = -(-length // slice_len)
        firsts = [-1] * count
        seconds: Dict[int, int] = {}
        bounds: List[int] = []
        for index, (start, end) in enumerate(zip(starts, ends)):
            if not bounds or bounds[-1] != start:
                bounds.append(start)
            bounds.append(end)
            first = start // slice_len
            if firsts[first] == -1:
                firsts[first] = index
            elif first not in seconds:
                seconds[first] = index
            else:
                firsts[first] = seconds[first] = _CROWDED
            last = (end - 1) // slice_len
            if last > first:
                # Earlier records end before slice first + 1 begins.
                firsts[first + 1 : last + 1] = [index] * (last - first)
        if not bounds or bounds[-1] != length:
            bounds.append(length)
        slices = array("i", (-1, -1)) * count
        slices[0::2] = array("i", firsts)
        for first, index in seconds.items():
            slices[2 * first + 1] = index
        self._memo = None
        self.slice_len_ns = slice_len
        self.slices = slices
        self._starts = starts
        self._bounds = bounds

    def lookup(self, now_ns: int) -> Optional[Allocation]:
        """O(1) dispatch lookup: the allocation covering ``now_ns``, if any.

        ``now_ns`` may be any absolute time; it is reduced modulo the
        table length, exactly as the dispatcher does.  The answer for
        the enclosing slot is memoized, so repeated lookups within one
        slot (the common case: a core re-picking inside its current
        allocation) skip the modulo and slice probe entirely.
        """
        memo = self._memo
        if memo is not None and memo[0] <= now_ns < memo[1]:
            return memo[2]
        if not self.slices:
            self.build_slices()
        offset = now_ns % self.length_ns
        base = now_ns - offset
        slices = self.slices
        at = offset // self.slice_len_ns * 2
        if at >= len(slices):
            at = len(slices) - 2
        first = slices[at]
        if first == _CROWDED:
            found = self._lookup_slow(offset)
        else:
            found = None
            for alloc_index in (first, slices[at + 1]):
                if alloc_index < 0:
                    continue
                alloc = self.allocations[alloc_index]
                if alloc.start <= offset < alloc.end:
                    found = alloc
                    break
        if found is not None:
            self._memo = (base + found.start, base + found.end, found)
        else:
            # Idle until the next allocation begins (or the table wraps).
            nxt = bisect_right(self._starts, offset)
            until = self._starts[nxt] if nxt < len(self._starts) else self.length_ns
            self._memo = (now_ns, base + until, None)
        return found

    def next_boundary(self, now_ns: int) -> int:
        """Absolute time of the next allocation start/end after ``now_ns``.

        The dispatcher programs its timer to this instant: either the
        current allocation expires or a new one begins (or the table
        wraps).  Always strictly greater than ``now_ns``.
        """
        memo = self._memo
        if memo is not None and memo[0] <= now_ns < memo[1]:
            return memo[1]
        if not self.slices:
            self.build_slices()
        offset = now_ns % self.length_ns
        bounds = self._bounds
        return now_ns - offset + bounds[bisect_right(bounds, offset)]

    def _lookup_slow(self, offset: int) -> Optional[Allocation]:
        index = bisect_right(self._starts, offset) - 1
        if index >= 0:
            alloc = self.allocations[index]
            if alloc.start <= offset < alloc.end:
                return alloc
        return None

    def service_intervals(self, vcpu: str) -> List[Tuple[int, int]]:
        records = self._records
        if records is None:
            return [(a.start, a.end) for a in self.allocations if a.vcpu == vcpu]
        starts, ends, vcpus = records
        return [(s, e) for s, e, v in zip(starts, ends, vcpus) if v == vcpu]

    def attach_columns(
        self,
        seg_starts: array,
        seg_ends: array,
        seg_local: array,
        seg_names: List[str],
    ) -> None:
        """Install planner-produced segment columns (zero-copy transport).

        ``seg_local`` holds indices into ``seg_names`` (-1 = idle); the
        columns must be the exact :meth:`as_arrays` flattening of
        :attr:`allocations`.  The shortest-allocation length is cached
        here too, so slice sizing and the serialized-size estimate never
        rescan the allocation list.
        """
        self._seg_starts = seg_starts
        self._seg_ends = seg_ends
        self._seg_local = seg_local
        self._seg_names = seg_names
        self._arrays_memo = None
        shortest: Optional[int] = None
        for index in range(len(seg_local)):
            if seg_local[index] < 0:
                continue
            length = seg_ends[index] - seg_starts[index]
            if shortest is None or length < shortest:
                shortest = length
        self._min_alloc_ns = shortest

    def _derive_columns(self) -> None:
        """Build the local-handle segment columns from the allocations."""
        starts = array("q")
        ends = array("q")
        local = array("q")
        names: List[str] = []
        ids: Dict[str, int] = {}
        cursor = 0
        for alloc in self.allocations:
            if alloc.start > cursor:
                starts.append(cursor)
                ends.append(alloc.start)
                local.append(-1)
            starts.append(alloc.start)
            ends.append(alloc.end)
            if alloc.vcpu is None:
                local.append(-1)
            else:
                handle = ids.get(alloc.vcpu)
                if handle is None:
                    handle = len(names)
                    ids[alloc.vcpu] = handle
                    names.append(alloc.vcpu)
                local.append(handle)
            cursor = alloc.end
        if cursor < self.length_ns:
            starts.append(cursor)
            ends.append(self.length_ns)
            local.append(-1)
        self._seg_starts = starts
        self._seg_ends = ends
        self._seg_local = local
        self._seg_names = names

    def as_arrays(
        self, vcpu_id: Callable[[str], int]
    ) -> Tuple[array, array, array]:
        """Flatten the cyclic schedule into full-coverage segment columns.

        Returns three parallel ``array('q')`` columns ``(starts, ends,
        handles)`` covering ``[0, length_ns)`` without gaps: every
        allocation becomes one segment carrying ``vcpu_id(name)`` (its
        integer handle), and every idle interval — gaps between
        allocations, the leading gap, the trailing gap, explicit idle
        records — becomes a segment with handle ``-1``.  This is the
        compact structure-of-arrays encoding the array dispatch engine
        (:mod:`repro.sim.arraycore`) plays back with a cursor instead of
        probing the slice table.

        The flattening is served from cached segment columns: planner
        tables carry them from materialization (zero-copy), other tables
        derive them once, and repeat calls with the same handle mapping
        return the identical array objects.
        """
        if self._seg_names is None:
            self._derive_columns()
        names = self._seg_names
        assert names is not None  # for mypy; _derive_columns always sets it
        mapping = tuple(vcpu_id(name) for name in names)
        memo = self._arrays_memo
        if memo is not None and memo[0] == mapping:
            return memo[1]
        starts = self._seg_starts
        ends = self._seg_ends
        local = self._seg_local
        assert starts is not None and ends is not None and local is not None
        identity = True
        for index, handle in enumerate(mapping):
            if handle != index:
                identity = False
                break
        if identity:
            handles = local
        else:
            handles = array("q", local)
            for index in range(len(handles)):
                handle = handles[index]
                if handle >= 0:
                    handles[index] = mapping[handle]
        result = (starts, ends, handles)
        self._arrays_memo = (mapping, result)
        return result


class _LazyAllocations:
    """``CoreTable.allocations`` of a table made by ``from_records``.

    A non-data descriptor: it is reached only while a table has no
    ``allocations`` of its own, builds the list from the record columns,
    and stores it on the table, so every later read is a plain attribute
    read.  (A ``__getattr__`` hook would do the same, but CPython cannot
    specialize attribute reads on a class that has one, which slows every
    ``CoreTable`` attribute read.)
    """

    def __get__(self, table: Optional[CoreTable], owner: type) -> Any:
        if table is None:
            return self
        records = table._records
        if records is None:
            raise AttributeError("allocations")
        allocations = list(map(Allocation, *records))
        table.allocations = allocations
        return allocations


# Installed after the dataclass is built: as a class-body default it would
# become the field's default value.
setattr(CoreTable, "allocations", _LazyAllocations())

#: What a :class:`CoreTable` pickles: every field but the record columns.
_PICKLED_FIELDS = tuple(f.name for f in fields(CoreTable) if f.name != "_records")


@dataclass
class SystemTable:
    """The complete scheduling table for a machine.

    Attributes:
        length_ns: Common cycle length of all core tables.
        cores: Per-core tables, indexed by physical core id.
        vcpu_names: Stable vCPU name -> integer id mapping used for
            serialization and by the dispatcher's compact encoding.
        home_cores: For each vCPU, the cores it has allocations on, in
            time order of its first allocation (the first entry is its
            primary core for second-level scheduling; migrating vCPUs
            have several entries and use the trailing-core policy).
    """

    length_ns: int
    cores: Dict[int, CoreTable]
    vcpu_names: List[str] = field(default_factory=list)
    home_cores: Dict[str, List[int]] = field(default_factory=dict)
    _vcpu_ids: Dict[str, int] = field(default_factory=dict, repr=False, compare=False)
    #: Cached :meth:`as_arrays` answer — a system table's allocations are
    #: immutable after planning, so repeated table switches (and the
    #: ``'TBLA'`` serializer) reuse the same column objects.
    _arrays_cache: Optional[Dict[int, Tuple[array, array, array]]] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.vcpu_names or not self.home_cores:
            self._rebuild_index()

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state["_arrays_cache"] = None
        return state

    def _rebuild_index(self) -> None:
        names: List[str] = []
        homes: Dict[str, List[Tuple[int, int]]] = {}
        for cpu, table in sorted(self.cores.items()):
            for alloc in table.allocations:
                vcpu = alloc.vcpu
                if vcpu is None:
                    continue
                entries = homes.get(vcpu)
                if entries is None:
                    names.append(vcpu)
                    homes[vcpu] = [(alloc.start, cpu)]
                elif entries[-1][1] != cpu:
                    # Cores are walked in order, so a vCPU already homed
                    # on this core has it as its last entry.
                    entries.append((alloc.start, cpu))
        self.vcpu_names = names
        self._vcpu_ids = {name: i for i, name in enumerate(names)}
        self.home_cores = {
            name: [cpu for _, cpu in sorted(entries)]
            for name, entries in homes.items()
        }

    @property
    def num_cores(self) -> int:
        return len(self.cores)

    def vcpu_id(self, name: str) -> int:
        ids = self._vcpu_ids
        if len(ids) != len(self.vcpu_names):
            # vcpu_names was supplied (or replaced) directly, e.g. by the
            # deserializer; derive the reverse mapping once.
            ids = {n: i for i, n in enumerate(self.vcpu_names)}
            self._vcpu_ids = ids
        try:
            return ids[name]
        except KeyError:
            raise ValueError(f"{name!r} is not in the table") from None

    def core_of(self, vcpu: str) -> int:
        """Primary core of a vCPU (the only core, for partitioned vCPUs)."""
        return self.home_cores[vcpu][0]

    def as_arrays(self) -> Dict[int, Tuple[array, array, array]]:
        """Per-core flattened segment columns (see :meth:`CoreTable.as_arrays`).

        Handles index :attr:`vcpu_names` (``-1`` = idle), so consumers can
        resolve them against any name-keyed registry.
        """
        if self._arrays_cache is None:
            self._arrays_cache = {
                cpu: table.as_arrays(self.vcpu_id)
                for cpu, table in self.cores.items()
            }
        return self._arrays_cache

    def is_split(self, vcpu: str) -> bool:
        return len(self.home_cores.get(vcpu, ())) > 1

    def allocated_ns(self, vcpu: str) -> int:
        return sum(
            a.length
            for table in self.cores.values()
            for a in table.allocations
            if a.vcpu == vcpu
        )

    def utilization_of(self, vcpu: str) -> float:
        return self.allocated_ns(vcpu) / self.length_ns

    def service_timeline(self, vcpu: str) -> List[Tuple[int, int, int]]:
        """All ``(start, end, cpu)`` service intervals of a vCPU, time-ordered."""
        intervals = [
            (start, end, cpu)
            for cpu, table in self.cores.items()
            for (start, end) in table.service_intervals(vcpu)
        ]
        intervals.sort()
        return intervals

    def service_index(self) -> Dict[str, List[Tuple[int, int, int]]]:
        """Per-vCPU service timelines, built in one pass over the table.

        Equivalent to calling :meth:`service_timeline` for every vCPU,
        but O(total allocations) instead of O(vCPUs × allocations) —
        the planner's guarantee audit iterates every vCPU, so the
        per-query rescan was quadratic in machine size.
        """
        index: Dict[str, List[Tuple[int, int, int]]] = {}
        for cpu, table in self.cores.items():
            for alloc in table.allocations:
                if alloc.vcpu is not None:
                    index.setdefault(alloc.vcpu, []).append(
                        (alloc.start, alloc.end, cpu)
                    )
        for intervals in index.values():
            intervals.sort()
        return index

    def max_blackout_ns(
        self,
        vcpu: str,
        timeline: Optional[List[Tuple[int, int, int]]] = None,
    ) -> int:
        """Longest service gap of a vCPU over the cyclic schedule.

        Computed over two consecutive table cycles so the wrap-around gap
        is included; this is the quantity the planner promises to keep
        below the vCPU's latency goal L.  Pass ``timeline`` (an entry of
        :meth:`service_index`) to skip the per-call table scan.
        """
        intervals = timeline if timeline is not None else self.service_timeline(vcpu)
        if not intervals:
            return 2 * self.length_ns
        merged: List[Tuple[int, int]] = []
        for start, end, _cpu in intervals:
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        worst = 0
        for (_, prev_end), (next_start, _) in zip(merged, merged[1:]):
            worst = max(worst, next_start - prev_end)
        # Wrap-around gap between the last interval and the first one of
        # the next cycle.
        wrap = (merged[0][0] + self.length_ns) - merged[-1][1]
        return max(worst, wrap)

    def overlapping_service(self) -> List[Tuple[str, int, int]]:
        """Detect any instant where a vCPU is scheduled on two cores at once.

        Returns offending ``(vcpu, time, time)`` witnesses; must be empty
        for a valid table (split subtasks are constructed to never run in
        parallel).  Scans every allocation; :meth:`parallel_service` is
        the check the planner, the decoder and :meth:`validate` run.
        """
        witnesses: List[Tuple[str, int, int]] = []
        by_vcpu: Dict[str, List[Tuple[int, int]]] = {}
        for cpu, table in self.cores.items():
            for alloc in table.allocations:
                if alloc.vcpu is None:
                    continue
                by_vcpu.setdefault(alloc.vcpu, []).append((alloc.start, alloc.end))
        for vcpu, intervals in by_vcpu.items():
            intervals.sort()
            for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
                if s2 < e1:
                    witnesses.append((vcpu, s2, min(e1, e2)))
        return witnesses

    def build_slices(self, min_slice_len_ns: int = 1, only_missing: bool = False) -> None:
        """Build per-core slice tables.

        With ``only_missing`` cores whose slice table already exists are
        skipped — the dispatcher installs tables this way, so a core
        whose slices were derived by the decoder, or shared unchanged
        from the base of a delta push, is not rebuilt.  Allocation lists
        are never mutated after slices are built, so an existing slice
        table is always consistent.
        """
        for table in self.cores.values():
            if only_missing and table.slices:
                continue
            table.build_slices(min_slice_len_ns)

    def parallel_service(self) -> Optional[Tuple[str, int, int]]:
        """First ``(vcpu, start, end)`` a vCPU is served on two cores at once.

        The no-parallel-service check, for a table whose per-core layouts
        are valid: then only a vCPU homed on two or more cores can
        overlap itself, so only those vCPUs' intervals are read (from
        :attr:`home_cores`).  ``None`` when there is no such instant.
        """
        for vcpu, homes in self.home_cores.items():
            if len(homes) < 2:
                continue
            intervals: List[Tuple[int, int]] = []
            for cpu in homes:
                intervals.extend(self.cores[cpu].service_intervals(vcpu))
            intervals.sort()
            for (_s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
                if s2 < e1:
                    return vcpu, s2, min(e1, e2)
        return None

    def validate(self) -> None:
        """Structural validation: layout, lengths, and no parallel service."""
        for cpu, table in self.cores.items():
            if table.length_ns != self.length_ns:
                raise PlanningError(
                    f"cpu{cpu}: table length {table.length_ns} != system "
                    f"length {self.length_ns}"
                )
            table.validate_layout()
        overlap = self.parallel_service()
        if overlap is not None:
            vcpu, start, end = overlap
            raise PlanningError(
                f"vCPU {vcpu} scheduled on two cores during [{start}, {end})"
            )


def validate_against_tasks(
    table: CoreTable,
    tasks: Sequence[PeriodicTask],
    tolerance_ns: int = 0,
) -> None:
    """Check that every job of every task receives its budget by its deadline.

    This is the planner's ground-truth verification pass: regardless of
    which generation technique produced the table (EDF simulation, C=D
    splitting, DP-WRAP), the result must serve each job of task
    ``(C, D, T, offset)`` at least ``C - tolerance`` ns within
    ``[release, release + D)``.

    Jobs are checked with a single pointer sweep over the task's
    time-ordered intervals: releases are monotonic, so the cursor only
    advances and the pass is O(jobs + intervals) per task rather than
    O(jobs × intervals).
    """
    for task in tasks:
        intervals = table.service_intervals(task.name)
        intervals.sort()  # the sweep requires start order; usually a no-op
        job_count = table.length_ns // task.period
        count = len(intervals)
        cursor = 0
        for k in range(job_count):
            release = k * task.period + task.offset
            deadline = release + task.deadline
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
            if served + tolerance_ns < task.cost:
                raise PlanningError(
                    f"cpu{table.cpu}: job {k} of {task.name} got {served} ns "
                    f"of {task.cost} ns before its deadline at {deadline}"
                )
