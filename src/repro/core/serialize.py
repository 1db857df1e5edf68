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
compares the wire copy with its own derivation in one array comparison.

:func:`deserialize` is the validation boundary for a full push.  It
reads each core's records as integer columns, checks them there (order,
bounds, vCPU ids, slice table, no parallel service), raises
:class:`TableFormatError` for every rejection, and returns tables that
build their :class:`~repro.core.table.Allocation` lists only when first
read; the hypercall stages that table without validating it again.
"""

from __future__ import annotations

import struct
import sys
from array import array
from operator import le, lt, sub
from typing import Dict, List, Optional, Tuple

from repro.core.table import CoreTable, SystemTable
from repro.errors import TableFormatError

MAGIC = b"TBLO"
VERSION = 1

#: Magic of the structure-of-arrays payload (:func:`serialize_arrays`).
ARRAY_MAGIC = b"TBLA"
ARRAY_VERSION = 1

#: Magic of the delta payload (:func:`serialize_delta`): only the cores
#: that changed since a known base table travel, as raw segment columns.
DELTA_MAGIC = b"TBLD"
DELTA_VERSION = 1

_HEADER = struct.Struct("<4sHHQII")
_CPU_HEADER = struct.Struct("<IIQII")
_ALLOC = struct.Struct("<QQiI8x")
_SLICE = struct.Struct("<ii")
_ARRAY_CPU_HEADER = struct.Struct("<II")

#: Flags stored per allocation record.
FLAG_IDLE = 0x1

#: An explicit idle record's vCPU id and flags words (-1, FLAG_IDLE) read
#: as one little-endian 64-bit value.
_IDLE_WORD = FLAG_IDLE << 32 | 0xFFFFFFFF


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
    cpu listed twice, a record that is empty, overlaps its predecessor
    or ends past the table, a vCPU id out of range, slice records that
    disagree with the records, and a vCPU served on two cores at once.

    The slice records are not trusted: each core's slice table is
    derived once from its validated records (with the wire slice length
    as the floor, so a floored table round-trips) and the wire copy must
    match it exactly.  The wire geometry is checked against the records
    *before* the derivation, so the derivation is never larger than the
    payload that carried it.  :class:`SystemTable` derives the vCPU
    index from the same columns.
    """
    view = memoryview(payload)
    offset = 0

    def take_block(size: int) -> memoryview:
        nonlocal offset
        if offset + size > len(view):
            raise TableFormatError(
                f"truncated table: need {size} bytes at offset {offset}"
            )
        block = view[offset : offset + size]
        offset += size
        return block

    def take(fmt: struct.Struct) -> Tuple:
        return fmt.unpack(take_block(fmt.size))

    magic, version, ncpus, length_ns, nvcpus, _ = take(_HEADER)
    if magic != MAGIC:
        raise TableFormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise TableFormatError(f"unsupported table version {version}")
    if length_ns == 0:
        # Dispatch reduces time modulo the table length.
        raise TableFormatError("zero table length")
    names, offset = _read_names(view, offset, nvcpus)
    # Normalized vCPU id -> name; id -1 (idle) takes the trailing None.
    by_id: List[Optional[str]] = [*names, None]

    cores: Dict[int, CoreTable] = {}
    for _ in range(ncpus):
        cpu, nallocs, slice_len, nslices, _ = take(_CPU_HEADER)
        if cpu in cores:
            raise TableFormatError(f"cpu {cpu} listed twice")
        starts, ends, vcpus = _read_records(
            take_block(nallocs * _ALLOC.size), cpu, length_ns, by_id
        )
        wire = array("i")
        wire.frombytes(take_block(nslices * _SLICE.size))
        if sys.byteorder != "little":  # pragma: no cover - BE hosts only
            wire.byteswap()
        if nallocs:
            fits = slice_len >= min(map(sub, ends, starts))
            fits = fits and nslices == -(-length_ns // slice_len)
        else:
            fits = slice_len == length_ns and nslices == 1
        if not fits:
            raise TableFormatError(
                f"cpu{cpu}: {nslices} slices of {slice_len} ns do not fit "
                f"its allocations"
            )
        core = CoreTable.from_records(cpu, length_ns, starts, ends, vcpus)
        core.derive_slices(starts.tolist(), ends, slice_len)
        if core.slices != wire:
            raise TableFormatError(
                f"cpu{cpu}: slice records disagree with its allocations"
            )
        cores[cpu] = core
    _check_consumed(view, offset)

    table = SystemTable(length_ns=length_ns, cores=cores)
    check_parallel_service(table)
    return table


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


def _read_names(view: memoryview, offset: int, count: int) -> Tuple[List[str], int]:
    """The vCPU string table at ``offset``, and the offset after it."""
    names: List[str] = []
    for _ in range(count):
        if offset + 2 > len(view):
            raise TableFormatError("truncated vCPU string table header")
        (name_len,) = struct.unpack_from("<H", view, offset)
        offset += 2
        if offset + name_len > len(view):
            raise TableFormatError("truncated vCPU string table")
        try:
            names.append(bytes(view[offset : offset + name_len]).decode("utf-8"))
        except UnicodeDecodeError as error:
            raise TableFormatError(f"corrupt vCPU name: {error}") from None
        offset += name_len
    return names, offset


def _check_consumed(view: memoryview, offset: int) -> None:
    if offset != len(view):
        raise TableFormatError(
            f"{len(view) - offset} trailing bytes after the last record"
        )


def _read_records(
    block: memoryview, cpu: int, length_ns: int, by_id: List[Optional[str]]
) -> Tuple[array, array, List[Optional[str]]]:
    """One core's allocation records as validated ``(starts, ends, vcpus)``.

    The 32-byte records are read as whole-block integer arrays and split
    into columns by stride; ``vcpus`` holds each record's vCPU name, or
    ``None`` for an idle record (idle flag or negative id).
    """
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
    if ids and max(ids) >= len(by_id) - 1:
        raise TableFormatError(f"vCPU id {max(ids)} out of range")
    return starts, ends, list(map(by_id.__getitem__, ids))


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


def serialize_arrays(table: SystemTable) -> bytes:
    """Encode a table as the dispatcher's structure-of-arrays payload.

    The record format above is the planner->hypervisor ABI; this is the
    dispatcher-side compilation of the same table: per core, the
    gap-free segment columns the array engine
    (:mod:`repro.sim.arraycore`) plays back with a cursor.  Layout
    (little-endian):

        header    : magic 'TBLA' | version u16 | ncpus u16 | length u64
                    | nvcpus u32 | reserved u32                  (24 B)
        string tbl: nvcpus x (u16 len | utf-8 bytes)
        per cpu   : cpu u32 | nsegs u32                           (8 B)
          ends    : nsegs x i64  (raw column, segment end times)
          handles : nsegs x i64  (raw column, vCPU ids; -1 = idle)

    Segment starts are not stored: the columns cover ``[0, length_ns)``
    without gaps, so ``start[i]`` is ``end[i-1]`` (``0`` for the first
    segment).  The raw i64 columns round-trip straight into
    ``array('q')`` with no per-record unpacking.
    """
    columns = table.as_arrays()
    chunks: List[bytes] = [
        _HEADER.pack(
            ARRAY_MAGIC,
            ARRAY_VERSION,
            len(columns),
            table.length_ns,
            len(table.vcpu_names),
            0,
        )
    ]
    for name in table.vcpu_names:
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
    for cpu in sorted(columns):
        _starts, ends, handles = columns[cpu]
        if sys.byteorder != "little":  # pragma: no cover - BE hosts only
            ends, handles = ends[:], handles[:]
            ends.byteswap()
            handles.byteswap()
        chunks.append(_ARRAY_CPU_HEADER.pack(cpu, len(ends)))
        chunks.append(ends.tobytes())
        chunks.append(handles.tobytes())
    return b"".join(chunks)


def deserialize_arrays(
    payload: bytes,
) -> Tuple[int, List[str], Dict[int, Tuple[array, array]]]:
    """Decode a structure-of-arrays payload.

    Returns ``(length_ns, vcpu_names, columns)`` where ``columns`` maps
    each cpu to its ``(ends, handles)`` pair of ``array('q')`` columns,
    ready for cursor playback.  Raises :class:`TableFormatError` on bad
    magic, version mismatch, truncation, trailing bytes, or malformed
    columns (see :func:`_read_columns`), mirroring :func:`deserialize`.
    """
    view = memoryview(payload)
    if _HEADER.size > len(view):
        raise TableFormatError("truncated array table header")
    magic, version, ncpus, length_ns, nvcpus, _ = _HEADER.unpack_from(view, 0)
    if magic != ARRAY_MAGIC:
        raise TableFormatError(f"bad array-table magic {magic!r}")
    if version != ARRAY_VERSION:
        raise TableFormatError(f"unsupported array-table version {version}")
    names, offset = _read_names(view, _HEADER.size, nvcpus)
    columns = _read_columns(view, offset, ncpus, length_ns, len(names))
    return length_ns, names, columns


def _read_columns(
    view: memoryview, offset: int, ncpus: int, length_ns: int, nnames: int
) -> Dict[int, Tuple[array, array]]:
    """The per-cpu ``(ends, handles)`` columns of a segment-column payload.

    Shared by the ``'TBLA'`` and ``'TBLD'`` decoders.  Each cpu may
    appear once; its ends must rise strictly from the implicit first
    start 0 and finish at ``length_ns`` (the segments cover the cycle
    without gaps or overlaps); its handles must be ``-1`` (idle) or
    index the string table; and the columns must end the payload.
    """
    columns: Dict[int, Tuple[array, array]] = {}
    for _ in range(ncpus):
        if offset + _ARRAY_CPU_HEADER.size > len(view):
            raise TableFormatError("truncated per-cpu column header")
        cpu, nsegs = _ARRAY_CPU_HEADER.unpack_from(view, offset)
        offset += _ARRAY_CPU_HEADER.size
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

    Layout mirrors :func:`serialize_arrays` — header (with the base
    token in the reserved slot), the *full* new vCPU string table
    (handle assignments shift when the census changes, so names always
    travel), then per changed cpu the gap-free ``ends``/``handles``
    columns.  ``base_token`` names the staged table generation the delta
    applies on top of; the hypervisor rejects a mismatched token with
    :class:`TableFormatError` and the daemon falls back to a full push.
    """
    columns = table.as_arrays()
    chunks: List[bytes] = [
        _HEADER.pack(
            DELTA_MAGIC,
            DELTA_VERSION,
            len(changed_cores),
            table.length_ns,
            len(table.vcpu_names),
            base_token,
        )
    ]
    for name in table.vcpu_names:
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
    for cpu in sorted(changed_cores):
        _starts, ends, handles = columns[cpu]
        if sys.byteorder != "little":  # pragma: no cover - BE hosts only
            ends, handles = ends[:], handles[:]
            ends.byteswap()
            handles.byteswap()
        chunks.append(_ARRAY_CPU_HEADER.pack(cpu, len(ends)))
        chunks.append(ends.tobytes())
        chunks.append(handles.tobytes())
    return b"".join(chunks)


def deserialize_delta(
    payload: bytes,
) -> Tuple[int, List[str], int, Dict[int, Tuple[array, array]]]:
    """Decode a delta payload.

    Returns ``(length_ns, vcpu_names, base_token, columns)`` where
    ``columns`` maps each *changed* cpu to its ``(ends, handles)``
    column pair.  Raises :class:`TableFormatError` on bad magic, version
    mismatch, truncation, trailing bytes, or malformed columns (see
    :func:`_read_columns`).
    """
    view = memoryview(payload)
    if _HEADER.size > len(view):
        raise TableFormatError("truncated delta table header")
    magic, version, ncpus, length_ns, nvcpus, base_token = _HEADER.unpack_from(
        view, 0
    )
    if magic != DELTA_MAGIC:
        raise TableFormatError(f"bad delta-table magic {magic!r}")
    if version != DELTA_VERSION:
        raise TableFormatError(f"unsupported delta-table version {version}")
    names, offset = _read_names(view, _HEADER.size, nvcpus)
    columns = _read_columns(view, offset, ncpus, length_ns, len(names))
    return length_ns, names, base_token, columns


def table_size_bytes(table: SystemTable) -> int:
    """Size of the serialized table — the Fig. 4 memory-overhead metric.

    Slice counts are computed arithmetically (``ceil(length /
    slice_len)`` with the slice length of
    :meth:`~repro.core.table.CoreTable.build_slices`), so sizing a table
    never forces its slice tables to materialize — the planner builds
    slices lazily, on first dispatch lookup or serialization.
    """
    size = _HEADER.size
    for name in table.vcpu_names:
        size += 2 + len(name.encode("utf-8"))
    for core in table.cores.values():
        if core.slices:
            nslices = len(core.slices) // 2
        else:
            shortest = core.min_allocation_ns()
            if shortest is None:
                nslices = 1
            else:
                nslices = -(-core.length_ns // max(shortest, 1))
        size += _CPU_HEADER.size
        size += _ALLOC.size * core.allocation_count
        size += _SLICE.size * nslices
    return size
