"""Tests for the binary scheduling-table format."""

import importlib
import struct
from array import array

import pytest

from repro.core.serialize import (
    _DECODED,
    _SCHEDULES,
    MAGIC,
    clear_decode_cache,
    deserialize,
    deserialize_delta,
    serialize,
    serialize_delta,
    table_size_bytes,
)
from repro.core.params import MS
from repro.core.table import Allocation, CoreTable, SystemTable
from repro.errors import TableFormatError
from repro.schedulers import TableauScheduler
from repro.xen import TableHypercall

# The module itself (``repro.core`` re-exports the function of its name),
# for the decode cache's byte count and budget.
codec = importlib.import_module("repro.core.serialize")


def sample_system(length_ns=10_000):
    return SystemTable(
        length_ns=length_ns,
        cores={
            0: CoreTable(
                cpu=0,
                length_ns=length_ns,
                allocations=[Allocation(0, 2_500, "vm0.vcpu0"), Allocation(2_500, 5_000, "vm1.vcpu0")],
            ),
            1: CoreTable(
                cpu=1,
                length_ns=length_ns,
                allocations=[Allocation(1_000, 4_000, "vm2.vcpu0"), Allocation(6_000, 7_000, None)],
            ),
        },
    )


class TestRoundTrip:
    def test_allocations_survive(self):
        system = sample_system()
        restored = deserialize(serialize(system))
        for cpu in system.cores:
            assert restored.cores[cpu].allocations == system.cores[cpu].allocations

    def test_length_and_core_count_survive(self):
        restored = deserialize(serialize(sample_system()))
        assert restored.length_ns == 10_000
        assert restored.num_cores == 2

    def test_slice_tables_survive(self):
        system = sample_system()
        system.build_slices()
        restored = deserialize(serialize(system))
        for cpu in system.cores:
            assert restored.cores[cpu].slices == system.cores[cpu].slices
            assert restored.cores[cpu].slice_len_ns == system.cores[cpu].slice_len_ns

    def test_lookups_agree_after_round_trip(self):
        system = sample_system()
        system.build_slices()
        restored = deserialize(serialize(system))
        for t in range(0, 10_000, 113):
            for cpu in system.cores:
                assert restored.cores[cpu].lookup(t) == system.cores[cpu].lookup(t)

    def test_floored_slice_table_round_trips(self):
        # The wire slice length is the floor the receiver derives with,
        # so a table whose slices were built under a floor decodes to the
        # same (crowded) slice table.  Core 2 serves its own vCPUs: the
        # decoder rejects a vCPU served on two cores at once.
        cores = dict(sample_system().cores)
        cores[2] = CoreTable(
            cpu=2,
            length_ns=10_000,
            allocations=[
                Allocation(0, 1_000, "vm3.vcpu0"),
                Allocation(1_000, 2_000, "vm4.vcpu0"),
                Allocation(2_000, 3_000, "vm5.vcpu0"),
                Allocation(6_000, 9_000, "vm3.vcpu0"),
            ],
        )
        system = SystemTable(length_ns=10_000, cores=cores)
        system.build_slices(min_slice_len_ns=5_000)
        assert system.cores[2].slices == array("i", [-2, -2, 3, -1])
        restored = deserialize(serialize(system))
        for cpu in system.cores:
            assert restored.cores[cpu].slice_len_ns == 5_000
            assert restored.cores[cpu].slices == system.cores[cpu].slices
        assert restored.cores[2].lookup(2_500).vcpu == "vm5.vcpu0"

    def test_bytes_follow_the_documented_record_layout(self):
        # Packed record by record, as the module docstring lays it out:
        # the bulk slice column must not move a byte.
        system = sample_system()
        ids = {name: i for i, name in enumerate(system.vcpu_names)}
        expected = [
            struct.pack("<4sHHQII", b"TBLO", 1, 2, 10_000, len(ids), 0)
        ]
        for name in system.vcpu_names:
            expected.append(struct.pack("<H", len(name)) + name.encode())
        for cpu in sorted(system.cores):
            core = system.cores[cpu]
            core.build_slices()
            expected.append(
                struct.pack(
                    "<IIQII",
                    cpu,
                    len(core.allocations),
                    core.slice_len_ns,
                    len(core.slices) // 2,
                    0,
                )
            )
            for a in core.allocations:
                vcpu, flags = (-1, 1) if a.vcpu is None else (ids[a.vcpu], 0)
                expected.append(struct.pack("<QQiI8x", a.start, a.end, vcpu, flags))
            for first, second in zip(core.slices[0::2], core.slices[1::2]):
                expected.append(struct.pack("<ii", first, second))
        assert serialize(system) == b"".join(expected)

    def test_idle_allocation_round_trips(self):
        restored = deserialize(serialize(sample_system()))
        assert restored.cores[1].allocations[1].vcpu is None

    def test_empty_table_round_trips(self):
        system = SystemTable(length_ns=5_000, cores={0: CoreTable(cpu=0, length_ns=5_000)})
        restored = deserialize(serialize(system))
        assert restored.cores[0].allocations == []


class TestFormatErrors:
    def test_bad_magic_rejected(self):
        payload = bytearray(serialize(sample_system()))
        payload[:4] = b"XXXX"
        with pytest.raises(TableFormatError):
            deserialize(bytes(payload))

    def test_bad_version_rejected(self):
        payload = bytearray(serialize(sample_system()))
        struct.pack_into("<H", payload, 4, 99)
        with pytest.raises(TableFormatError):
            deserialize(bytes(payload))

    def test_truncated_payload_rejected(self):
        payload = serialize(sample_system())
        with pytest.raises(TableFormatError):
            deserialize(payload[: len(payload) // 2])

    def test_empty_payload_rejected(self):
        with pytest.raises(TableFormatError):
            deserialize(b"")

    def test_table_length_past_signed_64_bits_rejected(self):
        # An idle core fits any table length; segment columns do not.
        system = SystemTable(length_ns=5_000, cores={0: CoreTable(cpu=0, length_ns=5_000)})
        payload = bytearray(serialize(system))
        struct.pack_into("<Q", payload, 8, 1 << 63)
        struct.pack_into("<Q", payload, 24 + 8, 1 << 63)  # cpu0's slice length
        with pytest.raises(TableFormatError, match="table length .* out of range"):
            deserialize(bytes(payload))


def names_end(system):
    """Offset of the first per-cpu header (after header and string table)."""
    return 24 + sum(2 + len(name.encode()) for name in system.vcpu_names)


def second_cpu_offset(system, payload_kind):
    """Offset of the second cpu's header in a payload of ``system`` (a
    delta of every core carries every name, in the same order)."""
    first = system.cores[min(system.cores)]
    if payload_kind == "TBLO":
        first.build_slices()
        size = 24 + 32 * len(first.allocations) + 4 * len(first.slices)
    else:
        size = 8 + 16 * len(system.as_arrays()[first.cpu][1])
    return names_end(system) + size


ENCODERS = {
    "TBLO": (serialize, deserialize),
    "TBLD": (lambda system: serialize_delta(system, [0, 1], 7), deserialize_delta),
}


class TestStructuralRejections:
    """Every decoder rejects a cpu or a name listed twice and bytes after
    the end."""

    @pytest.mark.parametrize("kind", sorted(ENCODERS))
    def test_sample_payload_decodes(self, kind):
        encode, decode = ENCODERS[kind]
        decode(encode(sample_system()))

    @pytest.mark.parametrize("kind", sorted(ENCODERS))
    def test_cpu_listed_twice_rejected(self, kind):
        # Renumber the second cpu as the first: before, a full push
        # decoded to fewer cores than its header's count.
        encode, decode = ENCODERS[kind]
        system = sample_system()
        payload = bytearray(encode(system))
        at = second_cpu_offset(system, kind)
        assert struct.unpack_from("<I", payload, at)[0] == 1
        struct.pack_into("<I", payload, at, 0)
        with pytest.raises(TableFormatError, match="listed twice"):
            decode(bytes(payload))

    @pytest.mark.parametrize("kind", sorted(ENCODERS))
    def test_name_listed_twice_rejected(self, kind):
        # Rename the second vCPU as the first: before, a full push
        # decoded to one vCPU served under two ids.
        encode, decode = ENCODERS[kind]
        system = sample_system()
        payload = encode(system)
        first, second = (
            struct.pack("<H", len(name)) + name.encode() for name in system.vcpu_names[:2]
        )
        assert payload[24:46] == first + second
        with pytest.raises(TableFormatError, match="listed twice in the string table"):
            decode(payload[:24] + first + first + payload[46:])

    @pytest.mark.parametrize("kind", sorted(ENCODERS))
    @pytest.mark.parametrize("extra", [b"\x00", b"\xff" * 8, bytes(32)])
    def test_trailing_bytes_rejected(self, kind, extra):
        encode, decode = ENCODERS[kind]
        with pytest.raises(TableFormatError, match="trailing bytes"):
            decode(encode(sample_system()) + extra)


class TestDecodeCache:
    """A block the decoder accepted before is bound, not checked again;
    what varies from push to push is checked on every push."""

    def rejections(self, payload):
        """The error on ``payload`` after the clean payload was decoded,
        and with the cache cleared."""
        deserialize(serialize(sample_system()))
        held = dict(_DECODED), dict(_SCHEDULES), codec._decoded_bytes
        with pytest.raises(TableFormatError) as warm:
            deserialize(payload)
        # A rejected push leaves the cache as it was.
        assert (_DECODED, _SCHEDULES, codec._decoded_bytes) == held
        clear_decode_cache()
        with pytest.raises(TableFormatError) as cold:
            deserialize(payload)
        return str(warm.value), str(cold.value)

    def test_changed_slice_record_rejected(self):
        system = sample_system()
        payload = bytearray(serialize(system))
        first_slice = names_end(system) + 24 + 32 * len(system.cores[0].allocations)
        assert struct.unpack_from("<i", payload, first_slice) == (0,)
        struct.pack_into("<i", payload, first_slice, 1)
        warm, cold = self.rejections(bytes(payload))
        assert warm == cold == "cpu0: slice records disagree with its allocations"

    def test_string_table_too_short_for_its_ids_rejected(self):
        # Drop the last name, which only cpu1's block uses.
        system = sample_system()
        payload = serialize(system)
        last = system.vcpu_names[-1]
        assert last == "vm2.vcpu0"
        cut = names_end(system) - 2 - len(last)
        short = bytearray(payload[:cut] + payload[names_end(system) :])
        struct.pack_into("<I", short, 16, len(system.vcpu_names) - 1)
        warm, cold = self.rejections(bytes(short))
        assert warm == cold == "vCPU id 2 out of range"

    def test_changed_slice_count_rejected(self):
        system = sample_system()
        payload = bytearray(serialize(system))
        count_at = names_end(system) + 16  # cpu0's slice count
        (count,) = struct.unpack_from("<I", payload, count_at)
        struct.pack_into("<I", payload, count_at, count - 1)
        warm, cold = self.rejections(bytes(payload))
        assert warm == cold == (
            f"cpu0: {count - 1} slices of 2500 ns do not fit its allocations"
        )

    @pytest.mark.parametrize("fault", ["slice record", "parallel service"])
    def test_rejected_push_remembers_none_of_its_cores(self, fault):
        # cpu0 is new and passes its own checks; then cpu1's slice
        # records are wrong, or cpu1 serves cpu0's vCPU at the same time.
        system = sample_system()
        if fault == "parallel service":
            system.cores[1] = CoreTable(
                cpu=1, length_ns=10_000, allocations=[Allocation(1_000, 2_000, "vm0.vcpu0")]
            )
        payload = bytearray(serialize(system))
        if fault == "slice record":
            last_slice = len(payload) - 8
            assert struct.unpack_from("<i", payload, last_slice) == (-1,)
            struct.pack_into("<i", payload, last_slice, 0)
        clear_decode_cache()
        with pytest.raises(TableFormatError):
            deserialize(bytes(payload))
        assert not _DECODED and not _SCHEDULES and codec._decoded_bytes == 0

    def test_large_distinct_blocks_stay_within_the_byte_budget(self):
        # Each push carries one new 4,000-record core: 128 kB of records,
        # 64 kB of slice records and 80 kB of schedule, three times the
        # budget in all.  The bytes held are counted exactly and never
        # pass it, and the latest push is held.
        def held():
            blocks = sum(len(key[2]) + len(e.slices) for key, e in _DECODED.items())
            return blocks + sum(len(k[1]) + len(k[2]) + len(k[3]) for k in _SCHEDULES)

        pushes = 24
        assert pushes * 272_000 > 3 * codec._DECODED_BYTES
        clear_decode_cache()
        for step in range(pushes):
            length = 40_000 + step
            allocations = [
                Allocation(10 * k, 10 * k + 5, f"vm{k % 7}.vcpu0") for k in range(4_000)
            ]
            core = CoreTable(cpu=0, length_ns=length, allocations=allocations)
            payload = serialize(SystemTable(length_ns=length, cores={0: core}))
            deserialize(payload)
            assert held() == codec._decoded_bytes <= codec._DECODED_BYTES
            blocks = len(_DECODED)
            deserialize(payload)
            assert len(_DECODED) == blocks >= 1  # a hit
        assert len(_DECODED) < pushes

    def test_push_larger_than_the_budget_is_not_remembered(self, monkeypatch):
        deserialize(serialize(sample_system()))
        held = dict(_DECODED), dict(_SCHEDULES), codec._decoded_bytes
        # A new 84-byte block: 32 of record, 32 of slices, 20 of schedule.
        monkeypatch.setattr(codec, "_DECODED_BYTES", 50)
        core = CoreTable(cpu=0, length_ns=20_000, allocations=[Allocation(0, 5_000, "vm0")])
        deserialize(serialize(SystemTable(length_ns=20_000, cores={0: core})))
        assert (_DECODED, _SCHEDULES, codec._decoded_bytes) == held

    def test_block_repeated_within_a_push_is_read_once(self, monkeypatch):
        # Idle cores carry the same (empty) block: the second is bound
        # like a cached block, though the push is not remembered yet.
        read = []
        original = codec._read_block

        def counting(*args):
            read.append(args)
            return original(*args)

        monkeypatch.setattr(codec, "_read_block", counting)
        system = sample_system()
        system.cores[2] = CoreTable(cpu=2, length_ns=10_000)
        system.cores[3] = CoreTable(cpu=3, length_ns=10_000)
        clear_decode_cache()
        restored = deserialize(serialize(system))
        assert len(read) == 3  # cpu0, cpu1 and the first idle core
        assert restored.cores[3].slices == restored.cores[2].slices

    def test_floored_block_keeps_its_own_slice_table(self):
        # The same records travel floored and unfloored: each decode,
        # cold or warm, installs the slice table its push carried.
        def system(floor):
            table = SystemTable(length_ns=10_000, cores=dict(sample_system().cores))
            table.build_slices(min_slice_len_ns=floor)
            return table

        floored, unfloored = serialize(system(5_000)), serialize(system(1))
        clear_decode_cache()
        for payload, slice_len in [(floored, 5_000), (unfloored, 1_000)] * 2:
            restored = deserialize(payload)
            assert restored.cores[1].slice_len_ns == slice_len
            assert serialize(restored) == payload


def pushed_base(length_ns=10_000, end=3_000):
    """A hypercall whose last push is ``sample_system`` in full, and a
    delta that gives its cpu1 a new schedule: vm2 from 1 us to ``end``."""
    hypercall = TableHypercall(TableauScheduler(SystemTable(length_ns=MS, cores={})))
    hypercall.push_system_table(sample_system(length_ns))
    changed = sample_system(length_ns)
    changed.cores[1] = CoreTable(
        cpu=1, length_ns=length_ns, allocations=[Allocation(1_000, end, "vm2.vcpu0")]
    )
    return hypercall, serialize_delta(changed, [1], hypercall.delta_generation)


def delta_keys():
    return [key for key in _SCHEDULES if len(key) == 3]


class TestDeltaSchedules:
    """Delta pushes share the decoder's schedule map and its byte budget."""

    def test_new_schedule_is_counted_and_then_hit(self):
        clear_decode_cache()
        hypercall, payload = pushed_base()
        held = codec._decoded_bytes
        hypercall.push_table_delta(payload)
        (key,) = delta_keys()
        # Three segments: idle, vm2, idle; ends and ids, 8 bytes each.
        assert len(key[1]) == len(key[2]) == 24
        # Plus its slice table: 10 us in 2 us slices, 8 bytes each.
        assert codec._decoded_bytes == held + 48 + 5 * 8 <= codec._DECODED_BYTES
        staged = hypercall.staged_table.cores[1]
        again, payload = pushed_base()
        state = dict(_SCHEDULES), codec._decoded_bytes
        again.push_table_delta(payload)
        assert (_SCHEDULES, codec._decoded_bytes) == state
        assert again.staged_table.cores[1].slices is staged.slices

    def test_push_whose_new_schedules_pass_the_budget_is_not_remembered(
        self, monkeypatch
    ):
        clear_decode_cache()
        monkeypatch.setattr(codec, "_DECODED_BYTES", 40)
        hypercall, payload = pushed_base()
        held = dict(_DECODED), dict(_SCHEDULES), codec._decoded_bytes
        assert hypercall.push_table_delta(payload).delta
        assert (_DECODED, _SCHEDULES, codec._decoded_bytes) == held

    def test_a_short_allocation_counts_its_slice_table(self):
        # A 100 ns allocation in a 10 us table: 100 slices of 8 bytes.
        clear_decode_cache()
        hypercall, payload = pushed_base(end=1_100)
        held = codec._decoded_bytes
        hypercall.push_table_delta(payload)
        (_key,) = delta_keys()
        assert len(hypercall.staged_table.cores[1].slices) == 2 * 100
        assert codec._decoded_bytes == held + 48 + 100 * 8

    def test_a_slice_table_past_the_budget_is_not_held(self):
        # A 100 ns allocation in a 100 ms table: a million slices, 8 MB,
        # past the 2 MiB budget, so the schedule is staged but not kept.
        clear_decode_cache()
        hypercall, payload = pushed_base(100 * MS, end=1_100)
        held = dict(_SCHEDULES), codec._decoded_bytes
        assert hypercall.push_table_delta(payload).delta
        assert len(hypercall.staged_table.cores[1].slices) == 2 * 10**6
        assert (_SCHEDULES, codec._decoded_bytes) == held
        assert codec._decoded_bytes <= codec._DECODED_BYTES


class TestDeltaFormat:
    """'TBLD' version 2: a delta carries only the names its cores serve."""

    def test_bytes_follow_the_documented_layout(self):
        system = sample_system()
        _starts, ends, handles = system.cores[1].as_arrays({"vm2.vcpu0": 0}.__getitem__)
        expected = [
            struct.pack("<4sHHQII", b"TBLD", 2, 1, 10_000, 1, 7),
            struct.pack("<H", 9) + b"vm2.vcpu0",
            struct.pack("<II", 1, len(ends)),
            struct.pack(f"<{len(ends)}q", *ends),
            struct.pack(f"<{len(handles)}q", *handles),
        ]
        assert serialize_delta(system, [1], 7) == b"".join(expected)

    def test_names_are_numbered_by_first_appearance_over_the_cores(self):
        system = sample_system()
        length_ns, names, token, columns = deserialize_delta(
            serialize_delta(system, [1, 0], 3)
        )
        assert (length_ns, token) == (10_000, 3)
        assert names == ["vm0.vcpu0", "vm1.vcpu0", "vm2.vcpu0"]
        # cpu1's explicit idle record travels as idle time (handle -1).
        assert columns[1][1].tolist() == [-1, 2, -1, -1, -1]

    def test_a_delta_of_no_cores_carries_no_names(self):
        payload = serialize_delta(sample_system(), [], 0)
        assert len(payload) == 24
        assert deserialize_delta(payload)[1] == []


class TestTableSize:
    def test_size_matches_serialized_length(self):
        system = sample_system()
        assert table_size_bytes(system) == len(serialize(system))

    def test_size_of_a_table_whose_wire_slices_were_floored(self):
        clear_decode_cache()
        floored = SystemTable(length_ns=10_000, cores=dict(sample_system().cores))
        floored.build_slices(min_slice_len_ns=5_000)
        payload = serialize(floored)
        for _ in range(2):  # a cold decode, then a decode-cache hit
            restored = deserialize(payload)
            assert restored.cores[1].slice_len_ns == 5_000
            assert table_size_bytes(restored) == len(serialize(restored)) == len(payload)
        # The same schedules unfloored, bound to the same segments.
        unfloored = deserialize(serialize(sample_system()))
        assert unfloored.cores[1].slice_len_ns == 1_000
        assert table_size_bytes(unfloored) == len(serialize(unfloored)) > len(payload)

    def test_size_with_non_ascii_names(self):
        names = ["vm-é.vcpu0", "虚拟机.vcpu1", "vm🙂.vcpu0"]
        allocations = [
            Allocation(0, 1_000, names[0]),
            Allocation(1_000, 4_000, names[1]),
            Allocation(6_000, 7_000, names[2]),
        ]
        system = SystemTable(
            length_ns=10_000,
            cores={0: CoreTable(cpu=0, length_ns=10_000, allocations=allocations)},
        )
        unsliced = table_size_bytes(system)  # before any slice table exists
        payload = serialize(system)
        assert unsliced == table_size_bytes(system) == len(payload)
        restored = deserialize(payload)
        assert restored.vcpu_names == names
        assert table_size_bytes(restored) == len(payload)

    def test_size_grows_with_allocations(self):
        small = sample_system()
        big = SystemTable(
            length_ns=10_000,
            cores={
                0: CoreTable(
                    cpu=0,
                    length_ns=10_000,
                    allocations=[
                        Allocation(i * 100, i * 100 + 50, f"v{i}") for i in range(50)
                    ],
                )
            },
        )
        assert table_size_bytes(big) > table_size_bytes(small)

    def test_magic_is_first_bytes(self):
        assert serialize(sample_system())[:4] == MAGIC
