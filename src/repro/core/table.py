"""Scheduling-table data structures: allocations, slice tables, lookups.

A Tableau table (Fig. 2 of the paper) is, per physical core, a list of
non-overlapping, time-ordered *allocations* — intervals reserved for a
specific vCPU — plus a *slice table* that divides the cyclic timeline
into fixed-size slices for O(1) dispatch.  The slice length on each core
equals the length of that core's shortest allocation, which guarantees a
slice never overlaps more than two allocations, so a dispatch decision
touches at most two records.

Each core's schedule is one name-free :class:`Segments` object plus a
list of vCPU names.  The segments are shared: every table bound to the
same segments (same-shape cores, rebinds under other names, received
cores of one schedule) reads the same columns and the same slice table.
A table built from columns (:meth:`CoreTable.bound`: the planner, its
caches and both push decoders) builds its :class:`Allocation` list only
when first read; a table built from an allocation list derives its
segments on first need, and again if the list is replaced.

The ``'TBLO'`` decoder (:mod:`repro.core.serialize`) keeps the segments
of the core blocks it accepted and binds them again, unchecked, to a
block seen before: its cache key is all that the block's own checks
read, so a hit is an exact match of a block that passed them, and what
varies from push to push is checked on every push.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from itertools import compress
from operator import sub
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from repro.core.tasks import PeriodicTask
from repro.errors import ConfigurationError, PlanningError

#: vCPU id used in serialized tables for idle intervals.
IDLE = None

#: Slice-table entry of a slice that overlaps more than two allocations
#: (only possible under a slice-length floor): lookups binary-search instead.
_CROWDED = -2

#: A derived slice table: slice length, the ``array('i')`` slice column,
#: allocation starts and every allocation boundary (see
#: :meth:`CoreTable.derive_slices`).
Geometry = Tuple[int, array, List[int], List[int]]

#: What tells one record's vCPU from another in :meth:`Segments.from_records`.
Key = TypeVar("Key", bound=Hashable)


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


@dataclass(eq=False)
class Segments:
    """One core's schedule without vCPU names: gap-free segment columns.

    ``starts``/``ends``/``ids`` cover ``[0, length)`` in time order; a
    segment's id indexes the names list of the table bound to it, and
    ``-1`` marks idle time.  Every segment with an id is one allocation
    (an explicit idle record has an id whose name is ``None``), so
    allocation ``k`` of a bound table is its ``k``-th segment with an id.
    Never mutated after construction, except that :attr:`geometry` is
    filled in by the first :meth:`CoreTable.build_slices` that needs it
    and then serves every table bound to these segments, and likewise
    :attr:`wire_share`.
    """

    starts: array
    ends: array
    ids: array
    #: The allocations (the segments with an id): starts, ends and ids.
    records: Tuple[array, array, array]
    #: Shortest allocation, ``None`` on an idle core.
    min_alloc_ns: Optional[int]
    #: Each id in use and the start of its first segment, in the order
    #: of those starts.
    served: Dict[int, int]
    geometry: Optional[Geometry] = None
    #: :attr:`ids` renumbered by first appearance (see :meth:`numbered_ids`).
    _numbered: Optional[array] = field(default=None, repr=False)
    #: A bound core's share of :func:`repro.core.serialize.table_size_bytes`:
    #: ``(table length, header and record bytes, unfloored slice count)``,
    #: filled in by the first sizing of a table bound to these segments.
    wire_share: Optional[Tuple[int, int, int]] = field(default=None, repr=False)

    @classmethod
    def from_columns(cls, ends: array, ids: array) -> "Segments":
        """Segments over gap-free ``(ends, ids)`` columns (first start 0)."""
        starts = array("q", (0,)) + ends[:-1]
        kept = list(map((0).__le__, ids))
        starts_r, ends_r, ids_r = (
            array("q", compress(column, kept)) for column in (starts, ends, ids)
        )
        served: Dict[int, int] = {}
        for start, i in zip(starts_r, ids_r):
            if i not in served:
                served[i] = start
        return cls(
            starts,
            ends,
            ids,
            (starts_r, ends_r, ids_r),
            min(map(sub, ends_r, starts_r), default=None),
            served,
        )

    @classmethod
    def from_records(
        cls, length_ns: int, records: Iterable[Tuple[int, int, Key]]
    ) -> Tuple["Segments", List[Key]]:
        """Segments of time-ordered ``(start, end, vcpu)`` allocation
        records, and the ``vcpu`` of each id.

        Gaps become idle segments; each distinct ``vcpu`` (a name, or
        ``None`` for an explicit idle record; the decoder passes vCPU
        ids) gets the next id.
        """
        seg_ends = array("q")
        ids = array("q")
        names: List[Key] = []
        id_of: Dict[Key, int] = {}
        cursor = 0
        for start, end, vcpu in records:
            if start > cursor:
                seg_ends.append(start)
                ids.append(-1)
            handle = id_of.get(vcpu)
            if handle is None:
                handle = id_of[vcpu] = len(names)
                names.append(vcpu)
            seg_ends.append(end)
            ids.append(handle)
            cursor = end
        if cursor < length_ns:
            seg_ends.append(length_ns)
            ids.append(-1)
        return cls.from_columns(seg_ends, ids), names

    def relabels(self, other: "Segments") -> bool:
        """Whether ``other`` is this schedule under some relabelling of its
        vCPUs: the same object, or equal ends and :meth:`numbered_ids`.
        Id ``k`` of :attr:`served`'s order then pairs with ``other``'s."""
        return self is other or (
            self.ends == other.ends and self.numbered_ids() == other.numbered_ids()
        )

    def numbered_ids(self) -> array:
        """:attr:`ids` renumbered by first appearance (``-1`` stays idle).

        Two segments hold the same schedule up to a relabelling of their
        vCPUs exactly when their ends and these ids are equal: the planner
        numbers a core's ids by its task order, so cores of the same tasks
        in another name order number them apart.  Derived once.
        """
        numbered = self._numbered
        if numbered is None:
            number = dict(zip(self.served, range(len(self.served))))
            if all(map(int.__eq__, number, number.values())):
                numbered = self.ids
            else:
                number[-1] = -1
                numbered = array("q", map(number.__getitem__, self.ids))
            self._numbered = numbered
        return numbered


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
    #: The schedule as shared segment columns, and the names their ids
    #: index.  Set by :meth:`bound`; derived on first need otherwise.
    _segments: Optional[Segments] = field(default=None, repr=False, compare=False)
    _names: Optional[Sequence[Optional[str]]] = field(
        default=None, repr=False, compare=False
    )
    #: The allocation list the segments hold: the one they were derived
    #: from, or built (``None`` until a lazy table builds it).  A table
    #: whose ``allocations`` were replaced derives its segments again.
    _source: Optional[List[Allocation]] = field(
        default=None, repr=False, compare=False
    )
    #: The segments :meth:`slot_names` read, its answer, and that answer
    #: without explicit idle records (:meth:`served_names`).
    _slots: Optional[
        Tuple[Segments, List[Optional[str]], List[str]]
    ] = field(default=None, repr=False, compare=False)

    @classmethod
    def bound(
        cls,
        cpu: int,
        length_ns: int,
        segments: Segments,
        names: Sequence[Optional[str]],
    ) -> "CoreTable":
        """A table over shared ``segments``, segment id ``i`` named
        ``names[i]``, with their slice table if one was derived.  Builds
        no :class:`Allocation` until :attr:`allocations` is read.

        Sets the instance attributes ``__init__`` would, but for
        ``allocations`` (read through :class:`_LazyAllocations`), and
        allocates none that a bound table throws away: the slice fields
        are the segments' shared geometry or shared empty values, which
        no table mutates in place (:meth:`derive_slices` and
        :meth:`install_slices` replace them).
        """
        table = cls.__new__(cls)
        table.cpu = cpu
        table.length_ns = length_ns
        geometry = segments.geometry
        if geometry is None:
            geometry = _UNSLICED
        table.slice_len_ns, table.slices, table._starts, table._bounds = geometry
        table._memo = None
        table._segments = segments
        table._names = names
        table._source = None
        table._slots = None
        return table

    def __getstate__(self) -> Dict[str, object]:
        # Pickles hold the allocation list (a lazy table builds it here)
        # and the slice table, never the columns, so every table pickles
        # alike; an unpickled table derives its segments on first need.
        # The transient lookup memo is dropped.
        state = {name: getattr(self, name) for name in _PICKLED_FIELDS}
        state["_memo"] = None
        return state

    def _columns(self) -> Tuple[Segments, Sequence[Optional[str]]]:
        """The table's segments and names: derived once from its
        allocations, and again if ``allocations`` is replaced."""
        segments = self._segments
        allocations = self.__dict__.get("allocations")
        if segments is None or allocations is not self._source:
            assert allocations is not None  # else bound to segments
            segments, self._names = Segments.from_records(
                self.length_ns, ((a.start, a.end, a.vcpu) for a in allocations)
            )
            self._segments = segments
            self._source = allocations
        names = self._names
        assert names is not None  # set with the segments
        return segments, names

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

    @property
    def allocation_count(self) -> int:
        return len(self._columns()[0].records[0])

    def min_allocation_ns(self) -> Optional[int]:
        return self._columns()[0].min_alloc_ns

    def build_slices(self, min_slice_len_ns: int = 1) -> Geometry:
        """Construct the O(1) slice table, and return it.

        The slice length is the shortest allocation on this core (the
        paper's rule), floored at ``min_slice_len_ns`` as a memory
        safeguard for degenerate tables.  When the floor is applied the
        at-most-two-allocations invariant may no longer hold and lookups
        transparently fall back to binary search for affected slices.
        An always-idle core gets one slice covering the whole table.

        The unfloored slice table is derived once per :class:`Segments`
        and kept there: every table bound to the same segments installs
        it.
        """
        segments, _names = self._columns()
        shortest = segments.min_alloc_ns
        if shortest is None:
            slice_len = self.length_ns
        else:
            slice_len = max(shortest, min_slice_len_ns)
        geometry = segments.geometry
        if geometry is not None and geometry[0] == slice_len:
            self.install_slices(geometry)
            return geometry
        starts, ends, _ids = segments.records
        self.derive_slices(starts.tolist(), ends, slice_len)
        geometry = (slice_len, self.slices, self._starts, self._bounds)
        if shortest is None or slice_len == shortest:
            segments.geometry = geometry
        return geometry

    def install_slices(self, geometry: Geometry) -> None:
        """Install a slice table derived before (see :meth:`build_slices`)."""
        self._memo = None
        self.slice_len_ns, self.slices, self._starts, self._bounds = geometry

    def derive_slices(
        self, starts: List[int], ends: Sequence[int], slice_len: int
    ) -> None:
        """Install the slice table of ``slice_len``-ns slices over records.

        The one slice-table derivation, fed by :meth:`build_slices` with
        a table's record columns.  ``starts``/``ends`` must be
        time-ordered and non-overlapping, and ``slice_len`` at least the
        shortest record.

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
        segments, names = self._columns()
        wanted = {i for i in segments.served if names[i] == vcpu}
        starts, ends, ids = segments.records
        return [(start, end) for start, end, i in zip(starts, ends, ids) if i in wanted]

    def served(self) -> List[Tuple[str, int]]:
        """Each vCPU this core serves, with the start of its first
        allocation here, in the order of those starts."""
        segments, names = self._columns()
        served: List[Tuple[str, int]] = []
        for i, start in segments.served.items():
            name = names[i]
            if name is not None:
                served.append((name, start))
        return served

    def same_schedule(self, other: "CoreTable") -> bool:
        """Whether both tables hold equal :attr:`allocations`, compared
        on their columns (only the names, when they share segments)."""
        mine, names = self._columns()
        theirs, other_names = other._columns()
        if mine is theirs:
            return all(names[i] == other_names[i] for i in mine.served)
        if mine.ends != theirs.ends:
            return False
        if mine.ids == theirs.ids:
            return all(names[i] == other_names[i] for i in mine.served)
        # Ids numbered apart: the same slots, renumbered, under the same
        # names.
        return mine.relabels(theirs) and self.slot_names() == other.slot_names()

    def slot_names(self) -> List[Optional[str]]:
        """The name of each segment id in use, in the order of the id's
        first segment (``None`` for an explicit idle record).  Derived once
        per schedule; do not mutate."""
        return self._slot_memo()[1]

    def served_names(self) -> List[str]:
        """Each vCPU this core serves, in the order of its first allocation
        here (:meth:`served` without the starts).  Derived once per
        schedule; do not mutate."""
        return self._slot_memo()[2]

    def _slot_memo(self) -> Tuple[Segments, List[Optional[str]], List[str]]:
        memo = self._slots
        if (
            memo is not None
            and memo[0] is self._segments
            and self.__dict__.get("allocations") is self._source
        ):
            # Still this schedule (see _columns).
            return memo
        segments, names = self._columns()
        slots = list(map(names.__getitem__, segments.served))
        served = slots if None not in slots else [n for n in slots if n is not None]
        memo = self._slots = (segments, slots, served)
        return memo

    @property
    def segments(self) -> Segments:
        """The schedule as shared, name-free segment columns."""
        return self._columns()[0]

    def renamed(self, rename: Dict[str, str]) -> "CoreTable":
        """This schedule with vCPU ``old`` renamed ``rename[old]``: a table
        bound to the same segments, so it shares their slice table."""
        segments, names = self._columns()
        return CoreTable.bound(
            self.cpu,
            self.length_ns,
            segments,
            [None if name is None else rename[name] for name in names],
        )

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

        The columns are the table's own segments: only the ids are
        translated to ``vcpu_id`` handles, and not even that when they
        already agree.
        """
        segments, _names = self._columns()
        return segments.starts, segments.ends, self._handles(segments.ids, vcpu_id)

    def record_columns(
        self, vcpu_id: Callable[[str], int]
    ) -> Tuple[array, array, array]:
        """The allocations as ``(starts, ends, handles)`` columns: the
        :meth:`as_arrays` segments without the gaps (an explicit idle
        record keeps handle ``-1``)."""
        starts, ends, ids = self._columns()[0].records
        return starts, ends, self._handles(ids, vcpu_id)

    def _handles(self, ids: array, vcpu_id: Callable[[str], int]) -> array:
        """This table's segment ``ids`` as ``vcpu_id`` handles (``-1``
        for idle) — ``ids`` itself when every id already is its handle."""
        segments, names = self._columns()
        # handles[i] is id i's handle; the last entry maps id -1.
        handles = [-1] * (len(names) + 1)
        identity = True
        for i in segments.served:
            name = names[i]
            if name is not None:
                handles[i] = vcpu_id(name)
            identity = identity and handles[i] == i
        return ids if identity else array("q", map(handles.__getitem__, ids))


class _LazyAllocations:
    """``CoreTable.allocations`` of a table made by ``bound``.

    A non-data descriptor: it is reached only while a table has no
    ``allocations`` of its own, builds the list from the segment columns,
    and stores it on the table, so every later read is a plain attribute
    read.  (A ``__getattr__`` hook would do the same, but CPython cannot
    specialize attribute reads on a class that has one, which slows every
    ``CoreTable`` attribute read.)
    """

    def __get__(self, table: Optional[CoreTable], owner: type) -> Any:
        if table is None:
            return self
        segments = table._segments
        names = table._names
        if segments is None or names is None:
            raise AttributeError("allocations")
        starts, ends, ids = segments.records
        vcpus = map(names.__getitem__, ids)
        allocations = list(map(Allocation, starts, ends, vcpus))
        # The columns hold this same schedule.
        table.allocations = table._source = allocations
        return allocations


# Installed after the dataclass is built: as a class-body default it would
# become the field's default value.
setattr(CoreTable, "allocations", _LazyAllocations())

#: The slice fields of a bound table whose segments have no slice table
#: yet: ``__init__``'s defaults, shared and never mutated in place.
_UNSLICED: Geometry = (0, _no_slices(), [], [])

#: What a :class:`CoreTable` pickles: every field but the columns.
_PICKLED_FIELDS = tuple(
    f.name
    for f in fields(CoreTable)
    if f.name not in ("_segments", "_names", "_source", "_slots")
)


def vcpu_index(
    cores: Dict[int, CoreTable]
) -> Tuple[List[str], Dict[str, List[int]]]:
    """The vCPU index of a system table's cores: :attr:`SystemTable.vcpu_names`
    and :attr:`SystemTable.home_cores`, in one walk over the sorted cores.

    Names are numbered in order of discovery: core by core, and within
    a core in time order of each vCPU's first allocation there.  A
    vCPU's home cores are the cores that serve it, in time order of its
    first allocation on each (ties by cpu).  Nearly every vCPU has one
    home core, which is its whole list; only vCPUs homed on several
    cores are sorted.  The planner and the ``'TBLO'`` decoder both index
    their tables here.
    """
    names: List[str] = []
    homes: Dict[str, List[int]] = {}
    several: List[str] = []
    for cpu in sorted(cores):
        segments, core_names = cores[cpu]._columns()
        for name in map(core_names.__getitem__, segments.served):
            if name is None:
                continue  # an explicit idle record
            home = homes.get(name)
            if home is None:
                names.append(name)
                homes[name] = [cpu]
            elif home[-1] != cpu:
                # Cores are walked in order, so a vCPU already homed on
                # this core (two ids under one name) has it last.
                if len(home) == 1:
                    several.append(name)
                home.append(cpu)
    # Each vCPU's first start on a core, for the cores that home a split
    # vCPU (reversed, so that a name's first allocation wins).
    firsts: Dict[int, Dict[str, int]] = {}
    for name in several:
        entries = []
        for cpu in homes[name]:
            first = firsts.get(cpu)
            if first is None:
                first = firsts[cpu] = dict(reversed(cores[cpu].served()))
            entries.append((first[name], cpu))
        entries.sort()
        homes[name] = [cpu for _start, cpu in entries]
    return names, homes


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

    The vCPU index (:attr:`vcpu_names` and :attr:`home_cores`) is what
    :func:`vcpu_index` derives from the cores: a table built without one,
    as the planner and the ``'TBLO'`` decoder build theirs, derives it at
    construction, and :meth:`patched` patches its base's.
    """

    length_ns: int
    cores: Dict[int, CoreTable]
    vcpu_names: List[str] = field(default_factory=list)
    home_cores: Dict[str, List[int]] = field(default_factory=dict)
    _vcpu_ids: Dict[str, int] = field(default_factory=dict, repr=False, compare=False)
    #: Cached :meth:`as_arrays` answer — a system table's allocations are
    #: immutable after planning, so repeated table switches reuse the
    #: same column objects.
    _arrays_cache: Optional[Dict[int, Tuple[array, array, array]]] = field(
        default=None, repr=False, compare=False
    )
    #: How many :attr:`vcpu_names` each core adds (see :meth:`patched`).
    _chunks: Optional[Dict[int, int]] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.vcpu_names or not self.home_cores:
            self.vcpu_names, self.home_cores = vcpu_index(self.cores)

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state["_arrays_cache"] = None
        return state

    def _chunk_sizes(self) -> Dict[int, int]:
        """How many :attr:`vcpu_names` each core adds: the vCPUs the walk
        of :func:`vcpu_index` finds first on it.  Derived once."""
        chunks = self._chunks
        if chunks is None:
            seen: Set[str] = set()
            chunks = {}
            for cpu in sorted(self.cores):
                before = len(seen)
                seen.update(self.cores[cpu].served_names())
                chunks[cpu] = len(seen) - before
            self._chunks = chunks
        return chunks

    def patched(self, changed: Dict[int, CoreTable]) -> "SystemTable":
        """This table with the cores in ``changed`` replaced.

        The vCPU index is patched for the replaced and incoming cores, not
        rebuilt: :attr:`cores` is a copy of this table's with ``changed``
        laid over it, :attr:`home_cores` a copy without the replaced
        cores' vCPUs and with the incoming cores' added, and
        :attr:`vcpu_names` this table's with each replaced core's run of
        names swapped for the incoming core's.  The result equals
        ``SystemTable(length_ns=self.length_ns, cores=...)``, order
        included, provided this table's index is what
        :func:`vcpu_index` derives from its cores (as every constructor
        here leaves it).

        Patching needs every vCPU served on a replaced or an incoming
        core to have that one home core (so its run of names is that
        core's alone); otherwise, as for a C=D split or a delta that
        moves a vCPU onto a core that keeps serving another, or for a
        cpu this table lacks, the index is rebuilt.  Python work is done
        per replaced and incoming vCPU; the rest is copied whole.
        """
        cores = dict(self.cores)
        cores.update(changed)
        index = self._patched_index(changed) if len(cores) == len(self.cores) else None
        if index is None:
            return SystemTable(length_ns=self.length_ns, cores=cores)
        names, homes, chunks = index
        table = SystemTable(
            length_ns=self.length_ns, cores=cores, vcpu_names=names, home_cores=homes
        )
        table._chunks = chunks
        return table

    def _patched_index(
        self, changed: Dict[int, CoreTable]
    ) -> Optional[Tuple[List[str], Dict[str, List[int]], Dict[int, int]]]:
        """:meth:`patched`'s vCPU index, or ``None`` when a vCPU of a
        replaced or an incoming core has another home core.

        :attr:`home_cores` lists the vCPUs in :attr:`vcpu_names` order,
        so both are cut at the same places: each replaced core's run of
        names, and of home lists, gives way to the incoming core's."""
        homes = self.home_cores
        gone: Set[str] = set()
        for cpu in changed:
            for name in self.cores[cpu].served_names():
                # A name two of the core's ids carry is gone already.
                if len(homes.get(name, ())) != 1 or name in gone:
                    return None
                gone.add(name)
        incoming = {cpu: changed[cpu].served_names() for cpu in sorted(changed)}
        arrived: Set[str] = set()
        for served in incoming.values():
            for name in served:
                if name in arrived or (name in homes and name not in gone):
                    return None
                arrived.add(name)
        sizes = self._chunk_sizes()
        chunks = dict(sizes)
        old_names = self.vcpu_names
        old_homes = list(homes.values())
        names: List[str] = []
        home_lists: List[List[int]] = []
        at = start = 0
        for cpu in sorted(self.cores):
            served = incoming.get(cpu)
            if served is not None:
                names += old_names[at:start]
                names += served
                home_lists += old_homes[at:start]
                home_lists += [[cpu] for _name in served]
                at = start + sizes[cpu]
                chunks[cpu] = len(served)
            start += sizes[cpu]
        names += old_names[at:]
        home_lists += old_homes[at:]
        return names, dict(zip(names, home_lists)), chunks

    @property
    def num_cores(self) -> int:
        return len(self.cores)

    def vcpu_id(self, name: str) -> int:
        ids = self._vcpu_ids
        if len(ids) != len(self.vcpu_names):
            # Derived on first use, and again if vcpu_names was replaced.
            ids = dict(zip(self.vcpu_names, range(len(self.vcpu_names))))
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
        :attr:`home_cores`, whose single-home entries are skipped in
        bulk).  ``None`` when there is no such instant.
        """
        every = self.home_cores
        several = map((1).__lt__, map(len, every.values()))
        for vcpu, homes in compress(every.items(), several):
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
