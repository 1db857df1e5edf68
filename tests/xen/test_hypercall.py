"""Tests for the table-push hypercall and lock-free table switches."""

import signal
import struct
from contextlib import contextmanager

import pytest

from repro.core import MS, Planner, make_vm, serialize
from repro.core.serialize import deserialize
from repro.core.table import Allocation, CoreTable, SystemTable
from repro.errors import TableFormatError
from repro.schedulers import TableauScheduler
from repro.sim import Machine, VCpu
from repro.topology import uniform
from repro.workloads import CpuHog, IntrinsicLatencyProbe
from repro.xen import TableHypercall


def build(num_vms=2, cores=1):
    vms = [make_vm(f"vm{i}", 0.25, 20 * MS, capped=True) for i in range(num_vms)]
    plan = Planner(uniform(cores)).plan(vms)
    sched = TableauScheduler(plan.table)
    machine = Machine(uniform(cores), sched, seed=1)
    return plan, sched, machine


class TestPushValidation:
    def test_valid_push_staged(self):
        plan, sched, machine = build()
        hypercall = TableHypercall(sched)
        new_plan = Planner(uniform(1)).plan(
            [make_vm(f"vm{i}", 0.25, 20 * MS, capped=True) for i in range(2)]
        )
        record = hypercall.push_table(serialize(new_plan.table))
        assert record.activation_cycle >= 1
        assert hypercall.pushes

    def test_garbage_payload_rejected(self):
        _, sched, _ = build()
        hypercall = TableHypercall(sched)
        with pytest.raises(TableFormatError):
            hypercall.push_table(b"garbage bytes here")
        assert not hypercall.pushes  # nothing staged

    def test_rejected_push_does_not_disturb_dispatcher(self):
        plan, sched, machine = build()
        hypercall = TableHypercall(sched)
        try:
            hypercall.push_table(b"\x00" * 64)
        except TableFormatError:
            pass
        assert sched.table is plan.table


class TestActivationTiming:
    def test_push_early_in_cycle_activates_next_wrap(self):
        plan, sched, machine = build()
        hypercall = TableHypercall(sched)
        machine.add_vcpu(VCpu("vm0.vcpu0", CpuHog(), capped=True))
        machine.add_vcpu(VCpu("vm1.vcpu0", CpuHog(), capped=True))
        length = plan.table.length_ns
        machine.run(length // 4)  # first quarter of cycle 0
        record = hypercall.push_system_table(plan.table)
        assert record.activation_cycle == 1

    def test_push_late_in_cycle_defers_one_extra_wrap(self):
        # Sec 6: "tables are never set during or close to a table wrap".
        plan, sched, machine = build()
        hypercall = TableHypercall(sched)
        machine.add_vcpu(VCpu("vm0.vcpu0", CpuHog(), capped=True))
        machine.add_vcpu(VCpu("vm1.vcpu0", CpuHog(), capped=True))
        length = plan.table.length_ns
        machine.run(length - length // 10)  # last tenth of cycle 0
        record = hypercall.push_system_table(plan.table)
        assert record.activation_cycle == 2

    def test_switch_happens_and_is_counted(self):
        plan, sched, machine = build()
        hypercall = TableHypercall(sched)
        machine.add_vcpu(VCpu("vm0.vcpu0", CpuHog(), capped=True))
        machine.add_vcpu(VCpu("vm1.vcpu0", CpuHog(), capped=True))
        machine.run(10 * MS)
        new_plan = Planner(uniform(1)).plan(
            [make_vm(f"vm{i}", 0.25, 20 * MS, capped=True) for i in range(2)]
        )
        hypercall.push_system_table(new_plan.table)
        machine.run(3 * plan.table.length_ns)
        assert sched.table_switches == 1

    def test_guarantees_hold_across_push(self):
        plan, sched, machine = build()
        hypercall = TableHypercall(sched)
        probe = IntrinsicLatencyProbe()
        machine.add_vcpu(VCpu("vm0.vcpu0", probe, capped=True))
        machine.add_vcpu(VCpu("vm1.vcpu0", CpuHog(), capped=True))
        machine.run(50 * MS)
        hypercall.push_system_table(plan.table)
        machine.run(400 * MS)
        assert probe.max_gap_ns <= 20 * MS

    def test_old_tables_garbage_collected(self):
        plan, sched, machine = build()
        hypercall = TableHypercall(sched)
        for _ in range(5):
            hypercall.push_system_table(plan.table)
        assert hypercall.retired_table_count <= 2


@contextmanager
def deadline(seconds):
    """Fail, instead of hanging, when the block outlives ``seconds``."""
    if not hasattr(signal, "setitimer"):  # pragma: no cover - non-POSIX
        yield
        return

    def expire(signum, frame):
        raise AssertionError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def slice_table_bomb():
    """A 99-byte 'TBLO' payload: a 10**15 ns cycle with one 1 ns allocation.

    Its allocations are structurally valid, but the slice table they
    imply has 10**15 entries; the payload carries one slice record.
    """
    name = b"vm0.vcpu0"
    return b"".join(
        [
            struct.pack("<4sHHQII", b"TBLO", 1, 1, 10**15, 1, 0),
            struct.pack("<H", len(name)),
            name,
            struct.pack("<IIQII", 0, 1, 1, 1, 0),  # cpu 0: 1 alloc, 1 slice
            struct.pack("<QQiI8x", 0, 1, 0, 0),
            struct.pack("<ii", 0, -1),
        ]
    )


def record_offset(table, cpu, index):
    """Byte offset of allocation record ``index`` of ``cpu`` in ``serialize(table)``."""
    offset = 24 + sum(2 + len(name.encode()) for name in table.vcpu_names)
    for other in sorted(table.cores):
        core = table.cores[other]
        if other == cpu:
            return offset + 24 + 32 * index
        offset += 24 + 32 * len(core.allocations) + 4 * len(core.slices)
    raise KeyError(cpu)


def one_core_system(*allocations):
    core = CoreTable(cpu=0, length_ns=10_000, allocations=list(allocations))
    system = SystemTable(length_ns=10_000, cores={0: core})
    system.build_slices()
    return system


def inverted_record_payload():
    """One record whose end (1_000) lies before its start (2_500)."""
    system = one_core_system(Allocation(2_500, 5_000, "vm0.vcpu0"))
    payload = bytearray(serialize(system))
    struct.pack_into("<Q", payload, record_offset(system, 0, 0) + 8, 1_000)
    return bytes(payload)


def overlapping_records_payload():
    """The second record (moved to start at 4_000) overlaps the first."""
    system = one_core_system(
        Allocation(0, 5_000, "vm0.vcpu0"), Allocation(5_000, 8_000, "vm1.vcpu0")
    )
    payload = bytearray(serialize(system))
    struct.pack_into("<Q", payload, record_offset(system, 0, 1), 4_000)
    return bytes(payload)


def parallel_service_payload():
    """vm0.vcpu0 on cpu 0 during [0, 5_000) and on cpu 1 during [2_500, 7_500).

    Each core's records and slice records are valid on their own.
    """
    system = SystemTable(
        length_ns=10_000,
        cores={
            0: CoreTable(
                cpu=0, length_ns=10_000, allocations=[Allocation(0, 5_000, "vm0.vcpu0")]
            ),
            1: CoreTable(
                cpu=1,
                length_ns=10_000,
                allocations=[Allocation(2_500, 7_500, "vm0.vcpu0")],
            ),
        },
    )
    return serialize(system)


def slice_record_offsets(table):
    """Byte offsets of every slice record in ``serialize(table)``."""
    offset = 24 + sum(2 + len(name.encode()) for name in table.vcpu_names)
    offsets = []
    for cpu in sorted(table.cores):
        core = table.cores[cpu]
        offset += 24 + 32 * len(core.allocations)
        # The slice column is stored as is: 4-byte entries, two per slice.
        offsets.extend(range(offset, offset + 4 * len(core.slices)))
        offset += 4 * len(core.slices)
    return offsets


class TestHostilePayloads:
    def test_decoder_rejects_slice_table_bomb(self):
        payload = slice_table_bomb()
        assert len(payload) == 99
        with deadline(5), pytest.raises(TableFormatError, match="slices"):
            deserialize(payload)

    def test_push_rejects_slice_table_bomb_untouched(self):
        plan, sched, _ = build()
        hypercall = TableHypercall(sched)
        hypercall.push_system_table(plan.table)
        serving = sched.table
        staged = hypercall.staged_table
        pushes = list(hypercall.pushes)
        generation = hypercall.delta_generation
        with deadline(5), pytest.raises(TableFormatError):
            hypercall.push_table(slice_table_bomb())
        assert sched.table is serving
        assert sched.pending_table is staged
        assert hypercall.staged_table is staged
        assert hypercall.pushes == pushes
        assert hypercall.delta_generation == generation
        assert hypercall.retired_unactivated == 0

    @pytest.mark.parametrize(
        "payload, reason",
        [
            (inverted_record_payload, "empty or inverted"),
            (overlapping_records_payload, "overlaps its predecessor"),
            (parallel_service_payload, "scheduled on two cores"),
        ],
    )
    def test_structural_rejections_are_format_errors(self, payload, reason):
        # The decoder is the one structural check of a full push: each of
        # these raises TableFormatError, the type push_table documents and
        # the daemon fails fast on, and leaves the hypercall untouched.
        with pytest.raises(TableFormatError, match=reason):
            deserialize(payload())
        plan, sched, _ = build()
        hypercall = TableHypercall(sched)
        hypercall.push_system_table(plan.table)
        serving = sched.table
        staged = hypercall.staged_table
        pushes = list(hypercall.pushes)
        generation = hypercall.delta_generation
        with pytest.raises(TableFormatError, match=reason):
            hypercall.push_table(payload())
        assert sched.table is serving
        assert sched.pending_table is staged
        assert hypercall.staged_table is staged
        assert hypercall.pushes == pushes
        assert hypercall.delta_generation == generation
        assert hypercall.retired_unactivated == 0
        assert hypercall.activations == 0

    def test_zero_length_table_rejected(self):
        # One idle core whose single slice spans the whole (empty) cycle:
        # structurally consistent, but dispatch divides by the length.
        payload = b"".join(
            [
                struct.pack("<4sHHQII", b"TBLO", 1, 1, 0, 0, 0),
                struct.pack("<IIQII", 0, 0, 0, 1, 0),
                struct.pack("<ii", -1, -1),
            ]
        )
        with pytest.raises(TableFormatError, match="zero table length"):
            deserialize(payload)
        _, sched, _ = build()
        hypercall = TableHypercall(sched)
        with pytest.raises(TableFormatError):
            hypercall.push_table(payload)
        assert not hypercall.pushes

    def test_every_flipped_slice_byte_rejected(self):
        plan, _, _ = build(num_vms=3)
        payload = serialize(plan.table)
        offsets = slice_record_offsets(plan.table)
        assert offsets and offsets[-1] == len(payload) - 1
        for position in offsets:
            flipped = bytearray(payload)
            flipped[position] ^= 0xFF
            with pytest.raises(TableFormatError, match="slice records"):
                deserialize(bytes(flipped))

    def test_push_rejects_flipped_slice_byte(self):
        plan, sched, _ = build()
        hypercall = TableHypercall(sched)
        flipped = bytearray(serialize(plan.table))
        flipped[slice_record_offsets(plan.table)[0]] ^= 0x01
        with pytest.raises(TableFormatError):
            hypercall.push_table(bytes(flipped))
        assert not hypercall.pushes
        assert hypercall.staged_table is None

    def test_wire_slice_length_must_fit_allocations(self):
        plan, _, _ = build()
        payload = bytearray(serialize(plan.table))
        core = plan.table.cores[0]
        # The slice_len field of cpu 0's header, halved: more slices than
        # the header's count, so the geometry check trips.
        at = 24 + sum(2 + len(n.encode()) for n in plan.table.vcpu_names) + 8
        assert struct.unpack_from("<Q", payload, at)[0] == core.slice_len_ns
        struct.pack_into("<Q", payload, at, core.slice_len_ns // 2)
        with pytest.raises(TableFormatError, match="do not fit"):
            deserialize(bytes(payload))
