"""A full push stays columnar until the hypervisor reads its allocations.

The 'TBLO' decoder binds each core to shared segment columns; a decoded
:class:`CoreTable` builds its :class:`Allocation` list on the first read
of ``allocations`` and caches it.  Pushing a table therefore constructs
no allocation on the receiver, and once read the list, the table's
equality, repr and pickle match the sender's.
"""

import pickle

import pytest

from repro.core import MS, Planner, make_vm, serialize
from repro.core.serialize import deserialize
from repro.core.table import Allocation, CoreTable, SystemTable
from repro.schedulers import TableauScheduler
from repro.topology import xeon_16core
from repro.xen import TableHypercall


@pytest.fixture
def constructed(monkeypatch):
    """Count of :class:`Allocation` objects constructed so far."""
    count = [0]
    original = Allocation.__post_init__

    def counting(self):
        count[0] += 1
        original(self)

    monkeypatch.setattr(Allocation, "__post_init__", counting)
    return count


def hypercall_on_empty_table():
    return TableHypercall(TableauScheduler(SystemTable(length_ns=MS, cores={})))


def idle_and_floored_system():
    """Explicit idle records (FLAG_IDLE on the wire) and a floored core."""
    length = 10_000
    cores = {
        0: CoreTable(
            cpu=0,
            length_ns=length,
            allocations=[
                Allocation(0, 2_000, "vm0.vcpu0"),
                Allocation(2_000, 3_000, None),
                Allocation(6_000, 7_500, "vm1.vcpu0"),
            ],
        ),
        1: CoreTable(
            cpu=1,
            length_ns=length,
            allocations=[
                Allocation(0, 1_000, "vm2.vcpu0"),
                Allocation(1_000, 2_000, "vm3.vcpu0"),
                Allocation(2_000, 3_000, "vm4.vcpu0"),
                Allocation(6_000, 9_000, None),
            ],
        ),
        2: CoreTable(cpu=2, length_ns=length),
    }
    system = SystemTable(length_ns=length, cores=cores)
    system.build_slices()
    cores[1].build_slices(min_slice_len_ns=5_000)  # a crowded slice
    return system


class TestFullPushIsLazy:
    def test_sixteen_core_push_builds_no_allocation_until_read(self, constructed):
        vms = [make_vm(f"vm{i:02d}", 0.25, 20 * MS) for i in range(44)]
        plan = Planner(xeon_16core()).plan(vms)
        payload = serialize(plan.table)
        hypercall = hypercall_on_empty_table()
        before = constructed[0]
        hypercall.push_table(payload)
        staged = hypercall.staged_table
        assert set(staged.cores) == set(plan.table.cores)  # the guest cores
        assert staged.vcpu_names == plan.table.vcpu_names
        assert staged.home_cores == plan.table.home_cores
        assert constructed[0] == before
        for cpu, core in staged.cores.items():
            assert core.allocations == plan.table.cores[cpu].allocations
        assert constructed[0] > before
        assert staged.cores == plan.table.cores

    def test_list_is_built_once_and_cached(self, constructed):
        restored = deserialize(serialize(idle_and_floored_system()))
        core = restored.cores[0]
        first = core.allocations
        count = constructed[0]
        assert core.allocations is first
        assert constructed[0] == count

    def test_idle_records_and_floored_table_match_the_sender(self):
        system = idle_and_floored_system()
        hypercall = hypercall_on_empty_table()
        hypercall.push_table(serialize(system))
        staged = hypercall.staged_table
        assert staged.cores[1].slice_len_ns == 5_000
        for cpu, sent in system.cores.items():
            received = staged.cores[cpu]
            assert received.allocations == sent.allocations
            assert received == sent
            assert repr(received) == repr(sent)
        assert staged.cores[0].allocations[1].vcpu is None
        assert staged.cores[2].allocations == []

    def test_lookups_before_any_read_build_the_list(self):
        system = idle_and_floored_system()
        restored = deserialize(serialize(system))
        for t in range(0, 10_000, 97):
            for cpu in system.cores:
                assert restored.cores[cpu].lookup(t) == system.cores[cpu].lookup(t)

    def test_pickles_carry_allocations_not_columns(self):
        lazy = deserialize(serialize(idle_and_floored_system()))
        eager = deserialize(serialize(idle_and_floored_system()))
        for core in eager.cores.values():
            assert core.allocations is not None  # read before pickling
        for cpu in lazy.cores:
            assert pickle.dumps(lazy.cores[cpu]) == pickle.dumps(eager.cores[cpu])
        clone = pickle.loads(pickle.dumps(lazy))
        assert clone == lazy
        for core in clone.cores.values():
            assert "allocations" in vars(core)
            assert core._segments is None
