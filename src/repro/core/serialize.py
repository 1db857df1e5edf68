"""Binary scheduling-table format (the planner -> hypervisor ABI).

The real Tableau planner pushes tables to the hypervisor via a hypercall
"in a compiled, binary format ... used directly by the Tableau
dispatcher" (Sec. 6).  This module defines an equivalent format and is
what the Fig. 4 memory-overhead benchmark measures.

Layout (little-endian):

    header    : magic 'TBLO' | version u16 | ncpus u16 | length u64
                | nvcpus u32 | reserved u32                      (24 B)
    string tbl: nvcpus x (u16 len | utf-8 bytes)
    per cpu   : cpu u32 | nallocs u32 | slice_len u64
                | nslices u32 | reserved u32                     (24 B)
      allocs  : start u64 | end u64 | vcpu i32 | flags u32 | pad (32 B)
      slices  : first i32 | second i32                            (8 B)

Allocation records are padded to 32 bytes so that two records share a
64-byte cache line — the dispatcher touches at most two records (one
slice entry plus up to two allocations) per decision, i.e., at most two
cache lines, matching the paper's O(1)-dispatch design.

The slice records are the dispatcher's slice table as stored:
:attr:`~repro.core.table.CoreTable.slices` is this ``array('i')``
column, so the encoder writes it with ``tobytes()`` and the decoder
compares the wire copy with its own derivation in one comparison.

:func:`deserialize` is the validation boundary for a full push.  It
checks each core's record block (order, bounds, vCPU ids, slice table)
and the whole table (no parallel service), raises
:class:`TableFormatError` for every rejection, and returns tables bound
to shared, name-free :class:`~repro.core.table.Segments` that build
their :class:`~repro.core.table.Allocation` lists only when first read;
the hypercall stages that table without validating it again.

Received cores recur, so the decoder keeps the core blocks it accepted
(a content-addressed cache within a byte budget).  The cache rule: the
key holds all that the block's own checks read (table length, slice
length, record block), so a hit is an exact match of a block that passed
every check; what varies from push to push (the string table the
block's ids index, the slice count, the slice records) is checked on
every push.  A push's new blocks are remembered only once the whole push
passed.  Blocks that differ only in vCPU numbering share one
:class:`~repro.core.table.Segments` and its slice table.

A ``'TBLD'`` delta (:func:`serialize_delta`) carries only the cores that
changed, as segment columns, and only the names those cores serve.  It
shares that cache of accepted schedules, under the same byte budget
(:func:`bind_delta_core`): each changed core's handles are numbered by
first appearance, so a core whose schedule an earlier delta carried,
under any names, binds those segments and their slice table again and
derives nothing.  Its columns are checked on every push
(:func:`_read_columns`), and the push's new schedules are remembered
only once the assembled table passed the no-parallel-service check.
"""

from __future__ import annotations

import struct
import sys
from array import array
from operator import le, lt, sub
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.core.table import CoreTable, Geometry, Segments, SystemTable
from repro.errors import TableDeltaMismatchError, TableFormatError

MAGIC = b"TBLO"
VERSION = 1

#: Magic of the delta payload (:func:`serialize_delta`): only the cores
#: that changed since a known base table travel, as raw segment columns.
#: Version 2 carries only the names those cores serve.
DELTA_MAGIC = b"TBLD"
DELTA_VERSION = 2

_HEADER = struct.Struct("<4sHHQII")
_CPU_HEADER = struct.Struct("<IIQII")
_ALLOC = struct.Struct("<QQiI8x")
_SLICE = struct.Struct("<ii")
_COLUMN_CPU_HEADER = struct.Struct("<II")

#: Flags stored per allocation record.
FLAG_IDLE = 0x1

#: An explicit idle record's vCPU id and flags words (-1, FLAG_IDLE) read
#: as one little-endian 64-bit value.
_IDLE_WORD = FLAG_IDLE << 32 | 0xFFFFFFFF


class _Accepted(NamedTuple):
    """A core record block that passed every check of :func:`deserialize`."""

    segments: Segments
    #: The slice table for the block's slice length (the segments' own
    #: unless the sender floored it).
    geometry: Geometry
    #: Segment id ``i`` is vCPU id ``order[i]`` (``-1``: explicit idle).
    order: List[int]
    #: The largest vCPU id in the block, ``-1`` when it has none.
    top: int
    #: The slice records, as they travel.
    slices: bytes


#: Accepted blocks by ``(length_ns, slice_len, record block)``: all that
#: the layout check, id normalization and slice derivation read.
_DECODED: Dict[Tuple[int, int, bytes], _Accepted] = {}
#: A name-free schedule's key: the table length, then its columns as
#: bytes.  ``'TBLO'`` blocks key on their record starts, record ends and
#: vCPU ids numbered by first record; ``'TBLD'`` cores on their segment
#: ends and ids numbered by first appearance, all that
#: :meth:`Segments.from_columns` reads.
ScheduleKey = Tuple[Union[int, bytes], ...]
#: The segments of each accepted name-free schedule, which later blocks
#: and delta cores of the schedule share; read on a miss only.
_SCHEDULES: Dict[ScheduleKey, Segments] = {}
#: The record-block, slice-record and schedule-key bytes both maps may
#: hold (the segments and slice tables derived from them grow in
#: proportion), plus the slice tables of ``'TBLD'`` schedules, which
#: travel without slice records: a push whose new blocks would pass it
#: clears both maps first, and a push whose new blocks alone pass it is
#: not remembered.
_DECODED_BYTES = 2 << 20
#: The bytes both maps hold, counted as for ``_DECODED_BYTES``.
_decoded_bytes = 0
#: Slice entries a ``'TBLD'`` delta may have derived for one new
#: schedule.  A delta carries no slice records, so nothing in its payload
#: bounds ``ceil(length / shortest allocation)``: a 1 ns allocation on a
#: 102.7 ms table is 10^8 entries.  Past this, the delta is bounced and
#: the table goes in full, slice records included.  Planner tables stay
#: far below it: the 10 us coalescing default caps a 102.7 ms core at
#: 10,271 slices.
DELTA_SLICE_LIMIT = 1 << 20


def clear_decode_cache() -> None:
    """Forget every accepted core block (the next decode runs cold)."""
    global _decoded_bytes
    _DECODED.clear()
    _SCHEDULES.clear()
    _decoded_bytes = 0


def serialize(table: SystemTable) -> bytes:
    """Encode a system table into the binary hypercall payload.

    Each core's records are written from its columns
    (:meth:`~repro.core.table.CoreTable.record_columns`) as one block.
    """
    vcpu_ids: Dict[str, int] = {
        name: index for index, name in enumerate(table.vcpu_names)
    }

    def vcpu_id(name: str) -> int:
        try:
            return vcpu_ids[name]
        except KeyError:
            raise TableFormatError(f"vCPU {name!r} is not in the vCPU index") from None

    chunks: List[bytes] = [
        _HEADER.pack(
            MAGIC, VERSION, len(table.cores), table.length_ns, len(vcpu_ids), 0
        )
    ]
    for name in table.vcpu_names:
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
    for cpu in sorted(table.cores):
        core = table.cores[cpu]
        if not core.slices:
            core.build_slices()
        slices = core.slices
        starts, ends, handles = core.record_columns(vcpu_id)
        chunks.append(
            _CPU_HEADER.pack(cpu, len(starts), core.slice_len_ns, len(slices) // 2, 0)
        )
        # Each 32-byte record as four 64-bit words: start, end, the vCPU
        # id and flags words, padding.
        records = array("q", (0, 0, 0, 0)) * len(starts)
        records[0::4] = starts
        records[1::4] = ends
        if -1 in handles:
            handles = array("q", [_IDLE_WORD if h < 0 else h for h in handles])
        records[2::4] = handles
        if sys.byteorder != "little":  # pragma: no cover - BE hosts only
            records.byteswap()
            slices = slices[:]
            slices.byteswap()
        chunks.append(records.tobytes())
        chunks.append(slices.tobytes())
    return b"".join(chunks)


def deserialize(payload: bytes) -> SystemTable:
    """Decode and validate a full ``'TBLO'`` push.

    The one structural check of a full push.  Raises
    :class:`TableFormatError` on a bad magic number or version, a zero
    table length, a truncated payload or bytes after the last record, a
    name listed twice in the string table (one vCPU under two ids), a
    cpu listed twice, a record that is empty, overlaps its predecessor
    or ends past the table, a vCPU id out of range, slice records that
    disagree with the records, a table length that segment columns
    cannot hold (2**63 ns or more), and a vCPU served on two cores at
    once.

    The slice records are not trusted: each core's slice table is
    derived from its validated records (with the wire slice length as
    the floor, so a floored table round-trips) and the wire copy must
    match it exactly.  The wire geometry is checked against the records
    *before* the derivation, so the derivation is never larger than the
    payload that carried it.

    A core block accepted before is bound without being parsed again:
    a hit is an exact match of a block that passed every check, and
    what varies from push to push (its largest vCPU id against this
    string table, truncation, the slice count, the slice records byte
    for byte) is checked on every push, in the order above.  A push's new
    blocks are remembered only once the whole table passed, so a rejected
    push leaves the cache as it was.  Every core is a
    :meth:`CoreTable.bound` table over shared segments.
    """
    data = bytes(payload)
    offset = 0

    def take(size: int) -> bytes:
        nonlocal offset
        if offset + size > len(data):
            raise TableFormatError(
                f"truncated table: need {size} bytes at offset {offset}"
            )
        offset += size
        return data[offset - size : offset]

    magic, version, ncpus, length_ns, nvcpus, _ = _HEADER.unpack(take(_HEADER.size))
    if magic != MAGIC:
        raise TableFormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise TableFormatError(f"unsupported table version {version}")
    if length_ns == 0:
        # Dispatch reduces time modulo the table length.
        raise TableFormatError("zero table length")
    names, offset = _read_names(data, offset, nvcpus)
    # vCPU id -> name; id -1 (idle) takes the trailing None.
    by_id: List[Optional[str]] = [*names, None]

    cores: Dict[int, CoreTable] = {}
    # This push's new blocks (idle cores repeat one) and schedules,
    # remembered once it passed.
    fresh: Dict[Tuple[int, int, bytes], _Accepted] = {}
    schedules: Dict[ScheduleKey, Segments] = {}
    for _ in range(ncpus):
        cpu, nallocs, slice_len, nslices, _ = _CPU_HEADER.unpack(
            take(_CPU_HEADER.size)
        )
        if cpu in cores:
            raise TableFormatError(f"cpu {cpu} listed twice")
        key = (length_ns, slice_len, take(nallocs * _ALLOC.size))
        known = _DECODED.get(key) or fresh.get(key)
        if known is None:
            starts, ends, ids = _read_block(key[2], cpu, length_ns)
            top = max(ids, default=-1)
            if starts:
                fits = slice_len >= min(map(sub, ends, starts))
            else:
                fits = slice_len == length_ns
        else:
            top, fits = known.top, True
        if top >= nvcpus:
            raise TableFormatError(f"vCPU id {top} out of range")
        wire = take(nslices * _SLICE.size)
        if not (fits and nslices == -(-length_ns // slice_len)):
            raise TableFormatError(
                f"cpu{cpu}: {nslices} slices of {slice_len} ns do not fit "
                f"its allocations"
            )
        if known is None:
            core, fresh[key] = _accept(
                key, cpu, starts, ends, ids, wire, by_id, schedules
            )
        elif wire != known.slices:
            raise _disagree(cpu)
        else:
            core = CoreTable.bound(
                cpu, length_ns, known.segments, [by_id[i] for i in known.order]
            )
            core.install_slices(known.geometry)
        cores[cpu] = core
    _check_consumed(data, offset)

    table = SystemTable(length_ns=length_ns, cores=cores)
    check_parallel_service(table)
    if fresh:
        _remember(fresh, schedules)
    return table


def _read_block(
    block: bytes, cpu: int, length_ns: int
) -> Tuple[array, array, array]:
    """One core's allocation records as layout-checked ``(starts, ends,
    ids)`` columns, read as whole-block integer arrays split by stride;
    an idle record (idle flag or negative id) has id ``-1``."""
    quads = array("Q")
    quads.frombytes(block)
    words = array("i")
    words.frombytes(block)
    if sys.byteorder != "little":  # pragma: no cover - BE hosts only
        quads.byteswap()
        words.byteswap()
    starts = quads[0::4]
    ends = quads[1::4]
    _check_layout(cpu, starts, ends, length_ns)
    ids = words[4::8]
    flags = words[5::8]
    if any(flags) or (ids and min(ids) < -1):
        ids = array(
            "i", [-1 if f & FLAG_IDLE or i < 0 else i for i, f in zip(ids, flags)]
        )
    return starts, ends, ids


def _accept(
    key: Tuple[int, int, bytes],
    cpu: int,
    starts: array,
    ends: array,
    ids: array,
    wire: bytes,
    by_id: List[Optional[str]],
    schedules: Dict[ScheduleKey, Segments],
) -> Tuple[CoreTable, _Accepted]:
    """The table of a block not seen before, and its cache entry, once
    its slice records match its validated records.  Blocks of one
    name-free schedule share its segments, and so its unfloored slice
    table, derived once; ``schedules`` takes the push's new ones."""
    length_ns, slice_len, _block = key
    if length_ns >= 1 << 63:
        # Segment columns hold signed 64-bit times.
        raise TableFormatError(f"table length {length_ns} out of range")
    order = list(dict.fromkeys(ids))
    number = {vcpu: i for i, vcpu in enumerate(order)}
    schedule = (
        length_ns,
        starts.tobytes(),
        ends.tobytes(),
        array("i", map(number.__getitem__, ids)).tobytes(),
    )
    shared = _SCHEDULES.get(schedule) or schedules.get(schedule)
    if shared is None:
        # Numbers each vCPU id by its place in ``order``.
        segments = Segments.from_records(length_ns, zip(starts, ends, ids))[0]
    else:
        segments = shared
    core = CoreTable.bound(cpu, length_ns, segments, [by_id[i] for i in order])
    # The wire slice length is at least the shortest record, so as the
    # floor it is the slice length itself.
    geometry = core.build_slices(slice_len)
    derived = geometry[1]
    if sys.byteorder != "little":  # pragma: no cover - BE hosts only
        derived = derived[:]
        derived.byteswap()
    slices = derived.tobytes()
    if slices != wire:
        raise _disagree(cpu)
    accepted = _Accepted(segments, geometry, order, max(order, default=-1), slices)
    if shared is None:
        schedules[schedule] = segments
    return core, accepted


def bind_delta_core(
    cpu: int,
    length_ns: int,
    ends: array,
    handles: array,
    names: Sequence[str],
    schedules: Dict[ScheduleKey, Segments],
) -> CoreTable:
    """A changed core of a ``'TBLD'`` delta, from its checked columns.

    The handles (indices into the push's string table) are numbered by
    first appearance, and the core is bound to the segments of that
    name-free schedule under the names of its vCPUs: the segments an
    earlier delta or this push brought, and their slice table with them,
    or new ones, which ``schedules`` takes so the caller can
    :func:`remember_schedules` them once the push passed.  A new schedule
    whose slice table would pass :data:`DELTA_SLICE_LIMIT` entries raises
    :class:`TableDeltaMismatchError`, so the sender pushes in full.
    """
    order = list(dict.fromkeys(handles))
    if -1 in order:
        order.remove(-1)
    number = dict(zip(order, range(len(order))))
    number[-1] = -1
    ids = array("q", map(number.__getitem__, handles))
    key = (length_ns, ends.tobytes(), ids.tobytes())
    segments = _SCHEDULES.get(key) or schedules.get(key)
    if segments is None:
        segments = Segments.from_columns(ends, ids)
        entries = -(-length_ns // (segments.min_alloc_ns or length_ns))
        if entries > DELTA_SLICE_LIMIT:
            raise TableDeltaMismatchError(
                f"delta core {cpu} would derive {entries} slice entries, "
                f"past the {DELTA_SLICE_LIMIT} a delta may; push the table "
                f"in full"
            )
        schedules[key] = segments
    return CoreTable.bound(cpu, length_ns, segments, [names[h] for h in order])


def remember_schedules(schedules: Dict[ScheduleKey, Segments]) -> None:
    """Keep a passed delta push's new schedules (see
    :func:`bind_delta_core`), within ``_DECODED_BYTES``.

    A delta carries no slice records, so each schedule is also counted
    for the slice table the dispatcher derives onto its segments, which
    the map then holds: ``ceil(length / shortest allocation)`` slices
    (one on an idle core), a slice record's bytes each.
    """
    slices = 0
    for segments in schedules.values():
        length_ns = segments.ends[-1]
        slices += -(-length_ns // (segments.min_alloc_ns or length_ns))
    _remember({}, schedules, _SLICE.size * slices)


def _remember(
    fresh: Dict[Tuple[int, int, bytes], _Accepted],
    schedules: Dict[ScheduleKey, Segments],
    derived: int = 0,
) -> None:
    """Keep a passed push's new blocks and schedules, within
    ``_DECODED_BYTES``; ``derived`` counts the slice tables of
    ``schedules`` that no slice record counts."""
    global _decoded_bytes
    size = derived + sum(
        len(key[2]) + len(entry.slices) for key, entry in fresh.items()
    )
    size += sum(
        len(part) for key in schedules for part in key if isinstance(part, bytes)
    )
    if size > _DECODED_BYTES:
        return
    if _decoded_bytes + size > _DECODED_BYTES:
        clear_decode_cache()
    _DECODED.update(fresh)
    _SCHEDULES.update(schedules)
    _decoded_bytes += size


def _disagree(cpu: int) -> TableFormatError:
    return TableFormatError(f"cpu{cpu}: slice records disagree with its allocations")


def check_parallel_service(table: SystemTable) -> None:
    """Reject a pushed table that serves a vCPU on two cores at once.

    The last structural check of a full or delta push, after the
    decoder has checked each core; raises :class:`TableFormatError`.
    """
    overlap = table.parallel_service()
    if overlap is not None:
        vcpu, start, end = overlap
        raise TableFormatError(
            f"vCPU {vcpu} scheduled on two cores during [{start}, {end})"
        )


def _read_names(payload: bytes, offset: int, count: int) -> Tuple[List[str], int]:
    """The vCPU string table at ``offset``, and the offset after it.

    Each name's length is read from its two bytes, and the name decoded
    from one slice of ``payload``.  A name listed twice would give one
    vCPU two ids, so it is rejected.
    """
    size = len(payload)
    names: List[str] = []
    for _ in range(count):
        if offset + 2 > size:
            raise TableFormatError("truncated vCPU string table header")
        start = offset + 2
        offset = start + (payload[offset] | payload[offset + 1] << 8)
        if offset > size:
            raise TableFormatError("truncated vCPU string table")
        try:
            names.append(payload[start:offset].decode("utf-8"))
        except UnicodeDecodeError as error:
            raise TableFormatError(f"corrupt vCPU name: {error}") from None
    if len(set(names)) != len(names):
        raise TableFormatError("a vCPU name is listed twice in the string table")
    return names, offset


def _check_consumed(payload: Union[bytes, memoryview], offset: int) -> None:
    if offset != len(payload):
        raise TableFormatError(
            f"{len(payload) - offset} trailing bytes after the last record"
        )


def _check_layout(cpu: int, starts: array, ends: array, length_ns: int) -> None:
    """Reject records that are empty, overlap, or end past the table."""
    if (
        all(map(lt, starts, ends))
        and all(map(le, ends, starts[1:]))
        and (not ends or ends[-1] <= length_ns)
    ):
        return
    previous_end = 0
    for start, end in zip(starts, ends):
        if end <= start:
            problem = "is empty or inverted"
        elif start < previous_end:
            problem = f"overlaps its predecessor ending at {previous_end}"
        elif end > length_ns:
            problem = f"exceeds table length {length_ns}"
        else:
            previous_end = end
            continue
        raise TableFormatError(f"cpu{cpu}: record [{start}, {end}) {problem}")


def _read_columns(
    view: memoryview, offset: int, ncpus: int, length_ns: int, nnames: int
) -> Dict[int, Tuple[array, array]]:
    """The per-cpu ``(ends, handles)`` columns of a ``'TBLD'`` payload.

    Each cpu may appear once; its ends must rise strictly from the
    implicit first start 0 and finish at ``length_ns`` (the segments
    cover the cycle without gaps or overlaps); its handles must be ``-1``
    (idle) or index the string table; and the columns must end the
    payload.
    """
    columns: Dict[int, Tuple[array, array]] = {}
    for _ in range(ncpus):
        if offset + _COLUMN_CPU_HEADER.size > len(view):
            raise TableFormatError("truncated per-cpu column header")
        cpu, nsegs = _COLUMN_CPU_HEADER.unpack_from(view, offset)
        offset += _COLUMN_CPU_HEADER.size
        if cpu in columns:
            raise TableFormatError(f"cpu {cpu} listed twice")
        column_bytes = nsegs * 8
        if offset + 2 * column_bytes > len(view):
            raise TableFormatError(
                f"truncated segment columns for cpu {cpu} at offset {offset}"
            )
        ends = array("q")
        handles = array("q")
        ends.frombytes(view[offset : offset + column_bytes])
        offset += column_bytes
        handles.frombytes(view[offset : offset + column_bytes])
        offset += column_bytes
        if sys.byteorder != "little":  # pragma: no cover - BE hosts only
            ends.byteswap()
            handles.byteswap()
        if not (
            ends
            and ends[0] > 0
            and ends[-1] == length_ns
            and all(map(lt, ends, ends[1:]))
        ):
            raise TableFormatError(
                f"cpu{cpu}: segment ends must rise strictly from 0 to the "
                f"table length {length_ns}"
            )
        lowest = min(handles)
        highest = max(handles)
        if lowest < -1 or highest >= nnames:
            handle = lowest if lowest < -1 else highest
            raise TableFormatError(f"vCPU handle {handle} out of range")
        columns[cpu] = (ends, handles)
    _check_consumed(view, offset)
    return columns


def serialize_delta(
    table: SystemTable, changed_cores: List[int], base_token: int
) -> bytes:
    """Encode a delta push: only ``changed_cores``, as segment columns.

    Layout (little-endian):

        header    : magic 'TBLD' | version u16 | ncpus u16 | length u64
                    | nnames u32 | base token u32                 (24 B)
        string tbl: nnames x (u16 len | utf-8 bytes)
        per cpu   : cpu u32 | nsegs u32                           (8 B)
          ends    : nsegs x i64  (raw column, segment end times)
          handles : nsegs x i64  (raw column, string-table index; -1 = idle)

    The string table holds the names the carried cores serve, each once,
    numbered by first appearance over the cores in cpu order; handles
    index it.  The receiver binds a carried core by its names
    (:func:`bind_delta_core`) and patches its vCPU index from them, so
    nothing in a delta refers to the base table's numbering.  Segment
    starts are implicit: the columns cover ``[0, length_ns)`` without
    gaps, so ``start[i]`` is ``end[i-1]`` (``0`` for the first segment).
    ``base_token`` names the staged table generation the delta applies on
    top of; the hypervisor rejects a mismatched token with
    :class:`TableDeltaMismatchError` and the daemon falls back to a full
    push.
    """
    number: Dict[str, int] = {}
    columns: List[bytes] = []
    for cpu in sorted(changed_cores):
        core = table.cores[cpu]
        for name in core.served_names():
            number.setdefault(name, len(number))
        _starts, ends, handles = core.as_arrays(number.__getitem__)
        if sys.byteorder != "little":  # pragma: no cover - BE hosts only
            ends, handles = ends[:], handles[:]
            ends.byteswap()
            handles.byteswap()
        columns.append(_COLUMN_CPU_HEADER.pack(cpu, len(ends)))
        columns.append(ends.tobytes())
        columns.append(handles.tobytes())
    chunks: List[bytes] = [
        _HEADER.pack(
            DELTA_MAGIC,
            DELTA_VERSION,
            len(changed_cores),
            table.length_ns,
            len(number),
            base_token,
        )
    ]
    for name in number:
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
    chunks += columns
    return b"".join(chunks)


def deserialize_delta(
    payload: bytes,
) -> Tuple[int, List[str], int, Dict[int, Tuple[array, array]]]:
    """Decode a delta payload.

    Returns ``(length_ns, names, base_token, columns)`` where ``names``
    is the delta's string table and ``columns`` maps each *changed* cpu
    to its ``(ends, handles)`` column pair.  Raises
    :class:`TableFormatError` on bad magic, a version other than 2,
    truncation, trailing bytes, a name listed twice in the string table,
    or malformed columns (see :func:`_read_columns`).
    """
    view = memoryview(payload)
    if _HEADER.size > len(view):
        raise TableFormatError("truncated delta table header")
    magic, version, ncpus, length_ns, nnames, base_token = _HEADER.unpack_from(
        view, 0
    )
    if magic != DELTA_MAGIC:
        raise TableFormatError(f"bad delta-table magic {magic!r}")
    if version != DELTA_VERSION:
        raise TableFormatError(f"unsupported delta-table version {version}")
    names, offset = _read_names(bytes(payload), _HEADER.size, nnames)
    columns = _read_columns(view, offset, ncpus, length_ns, len(names))
    return length_ns, names, base_token, columns


def table_size_bytes(table: SystemTable) -> int:
    """Size of the serialized table — the Fig. 4 memory-overhead metric.

    Slice counts are computed arithmetically (``ceil(length /
    slice_len)`` with the slice length of
    :meth:`~repro.core.table.CoreTable.build_slices`), so sizing a table
    never forces its slice tables to materialize — the planner builds
    slices lazily, on first dispatch lookup or serialization.

    The planner sizes every plan it makes, so this costs O(cores): the
    string table is sized in one pass over the joined names (UTF-8
    encodes a concatenation as the concatenation of the encodings), and
    each core's block once per shared
    :class:`~repro.core.table.Segments` (:attr:`~repro.core.table.Segments.wire_share`),
    with the slice count of the table's own slices when it has them.
    """
    names = table.vcpu_names
    size = _HEADER.size + 2 * len(names) + len("".join(names).encode("utf-8"))
    for core in table.cores.values():
        segments = core.segments
        share = segments.wire_share
        if share is None or share[0] != core.length_ns:
            share = segments.wire_share = _wire_share(segments, core.length_ns)
        slices = core.slices
        size += share[1] + _SLICE.size * (len(slices) // 2 if slices else share[2])
    return size


def _wire_share(segments: Segments, length_ns: int) -> Tuple[int, int, int]:
    """A core's header and record bytes, and the slice count of
    :meth:`~repro.core.table.CoreTable.build_slices`' unfloored slice
    table, for ``segments`` in a table ``length_ns`` long."""
    shortest = segments.min_alloc_ns
    nslices = 1 if shortest is None else -(-length_ns // max(shortest, 1))
    records = _CPU_HEADER.size + _ALLOC.size * len(segments.records[0])
    return length_ns, records, nslices
