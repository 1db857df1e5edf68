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
"""

from __future__ import annotations

import struct
import sys
from array import array
from itertools import chain
from typing import Dict, List, Tuple

from repro.core.table import Allocation, CoreTable, SystemTable
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


def serialize(table: SystemTable) -> bytes:
    """Encode a system table into the binary hypercall payload."""
    if not table.vcpu_names and any(
        a.vcpu is not None
        for core in table.cores.values()
        for a in core.allocations
    ):
        raise TableFormatError("system table has allocations but no vCPU index")
    vcpu_ids: Dict[str, int] = {
        name: index for index, name in enumerate(table.vcpu_names)
    }
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
        chunks.append(
            _CPU_HEADER.pack(
                cpu, len(core.allocations), core.slice_len_ns, len(core.slices), 0
            )
        )
        for alloc in core.allocations:
            if alloc.vcpu is None:
                chunks.append(_ALLOC.pack(alloc.start, alloc.end, -1, FLAG_IDLE))
            else:
                chunks.append(
                    _ALLOC.pack(alloc.start, alloc.end, vcpu_ids[alloc.vcpu], 0)
                )
        slices = core.slices
        chunks.append(
            struct.pack(f"<{2 * len(slices)}i", *chain.from_iterable(slices))
        )
    return b"".join(chunks)


def deserialize(payload: bytes) -> SystemTable:
    """Decode a binary payload back into a :class:`SystemTable`.

    Raises :class:`TableFormatError` on a bad magic number, version
    mismatch, zero table length, or truncated payload — the checks the
    hypervisor side of the hypercall performs before installing a table.

    The slice records are not trusted: each core's slice table is
    derived once from its validated allocations (with the wire slice
    length as the floor, so a floored table round-trips) and the wire
    copy must match it exactly.  The wire geometry is checked against
    the allocations *before* the derivation, so the derivation is never
    larger than the payload that carried it.
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

    names: List[str] = []
    for _ in range(nvcpus):
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

    cores: Dict[int, CoreTable] = {}
    for _ in range(ncpus):
        cpu, nallocs, slice_len, nslices, _ = take(_CPU_HEADER)
        records = take_block(nallocs * _ALLOC.size)
        allocations: List[Allocation] = []
        for start, end, vcpu_id, flags in _ALLOC.iter_unpack(records):
            if flags & FLAG_IDLE or vcpu_id < 0:
                allocations.append(Allocation(start, end, None))
            else:
                if vcpu_id >= len(names):
                    raise TableFormatError(f"vCPU id {vcpu_id} out of range")
                allocations.append(Allocation(start, end, names[vcpu_id]))
        wire = array("i")
        wire.frombytes(take_block(nslices * _SLICE.size))
        if sys.byteorder != "little":  # pragma: no cover - BE hosts only
            wire.byteswap()
        core = CoreTable(cpu=cpu, length_ns=length_ns, allocations=allocations)
        core.validate_layout()
        _derive_slices(core, slice_len, nslices, wire)
        cores[cpu] = core

    return SystemTable(length_ns=length_ns, cores=cores)


def _derive_slices(core: CoreTable, slice_len: int, nslices: int, wire: array) -> None:
    """Build ``core``'s slice table and reject a wire copy that disagrees."""
    shortest = core.min_allocation_ns()
    if shortest is None:
        fits = slice_len == core.length_ns and nslices == 1
    else:
        fits = slice_len >= shortest and nslices == -(-core.length_ns // slice_len)
    if not fits:
        raise TableFormatError(
            f"cpu{core.cpu}: {nslices} slices of {slice_len} ns do not fit "
            f"its allocations"
        )
    core.build_slices(slice_len)
    if list(zip(wire[0::2], wire[1::2])) != core.slices:
        raise TableFormatError(
            f"cpu{core.cpu}: slice records disagree with its allocations"
        )


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
    magic, version mismatch, or truncation, mirroring
    :func:`deserialize`.
    """
    view = memoryview(payload)
    offset = 0
    if _HEADER.size > len(view):
        raise TableFormatError("truncated array table header")
    magic, version, ncpus, length_ns, nvcpus, _ = _HEADER.unpack_from(view, 0)
    offset = _HEADER.size
    if magic != ARRAY_MAGIC:
        raise TableFormatError(f"bad array-table magic {magic!r}")
    if version != ARRAY_VERSION:
        raise TableFormatError(f"unsupported array-table version {version}")

    names: List[str] = []
    for _ in range(nvcpus):
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

    columns: Dict[int, Tuple[array, array]] = {}
    for _ in range(ncpus):
        if offset + _ARRAY_CPU_HEADER.size > len(view):
            raise TableFormatError("truncated per-cpu array header")
        cpu, nsegs = _ARRAY_CPU_HEADER.unpack_from(view, offset)
        offset += _ARRAY_CPU_HEADER.size
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
        for handle in handles:
            if handle >= len(names):
                raise TableFormatError(f"vCPU handle {handle} out of range")
        columns[cpu] = (ends, handles)
    return length_ns, names, columns


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
    mismatch, or truncation.
    """
    view = memoryview(payload)
    if _HEADER.size > len(view):
        raise TableFormatError("truncated delta table header")
    magic, version, ncpus, length_ns, nvcpus, base_token = _HEADER.unpack_from(
        view, 0
    )
    offset = _HEADER.size
    if magic != DELTA_MAGIC:
        raise TableFormatError(f"bad delta-table magic {magic!r}")
    if version != DELTA_VERSION:
        raise TableFormatError(f"unsupported delta-table version {version}")

    names: List[str] = []
    for _ in range(nvcpus):
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

    columns: Dict[int, Tuple[array, array]] = {}
    for _ in range(ncpus):
        if offset + _ARRAY_CPU_HEADER.size > len(view):
            raise TableFormatError("truncated per-cpu delta header")
        cpu, nsegs = _ARRAY_CPU_HEADER.unpack_from(view, offset)
        offset += _ARRAY_CPU_HEADER.size
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
        for handle in handles:
            if handle >= len(names):
                raise TableFormatError(f"vCPU handle {handle} out of range")
        columns[cpu] = (ends, handles)
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
            nslices = len(core.slices)
        else:
            shortest = core.min_allocation_ns()
            if shortest is None:
                nslices = 1
            else:
                nslices = -(-core.length_ns // max(shortest, 1))
        size += _CPU_HEADER.size
        size += _ALLOC.size * len(core.allocations)
        size += _SLICE.size * nslices
    return size
