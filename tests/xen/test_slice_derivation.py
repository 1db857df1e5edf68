"""Each slice table on the push path is derived once.

Counts :meth:`CoreTable.derive_slices` calls per core object (the one
derivation; ``build_slices`` calls it, for the planner and the decoder
alike): the decoder derives one slice table per distinct received
schedule and none for a core block it accepted before, the dispatcher
installs it without rebuilding, a delta push derives slices only for
the schedules of the cores it carries that no earlier delta carried,
and on the planner side a slice table is derived once per shared
segments — cores of one shape and table-cache rebinds install it,
deriving nothing.
"""

from collections import Counter

import pytest

from repro.core import MS, Planner, make_vm
from repro.core.cache import TableCache
from repro.core.params import flatten_vcpus
from repro.core.serialize import clear_decode_cache
from repro.core.table import CoreTable, SystemTable
from repro.schedulers import TableauScheduler
from repro.topology import uniform, xeon_16core
from repro.xen import PlannerDaemon, TableHypercall


def census(count, prefix="vm", utilization=0.25, latency_ms=20):
    return [
        make_vm(f"{prefix}{i:02d}", utilization, latency_ms * MS)
        for i in range(count)
    ]


@pytest.fixture
def builds(monkeypatch):
    """Every core object a slice table was derived on, in call order."""
    built = []
    original = CoreTable.derive_slices

    def counting(self, starts, ends, slice_len):
        built.append(self)
        original(self, starts, ends, slice_len)

    monkeypatch.setattr(CoreTable, "derive_slices", counting)
    return built


def hypercall_on_empty_table():
    return TableHypercall(TableauScheduler(SystemTable(length_ns=MS, cores={})))


def derivations_per_slice_table(builds, cores):
    """How many times each distinct slice table of ``cores`` was derived
    on one of them."""
    ids = {id(core) for core in cores}
    return Counter(id(core.slices) for core in builds if id(core) in ids)


def schedule(core):
    """A core's name-free schedule: its allocations' times, and their
    vCPUs numbered in order of first allocation."""
    order = list(dict.fromkeys(alloc.vcpu for alloc in core.allocations))
    return tuple(
        (alloc.start, alloc.end, order.index(alloc.vcpu))
        for alloc in core.allocations
    )


class TestFullPush:
    def test_one_build_per_received_schedule_plus_missing_planner_cores(
        self, builds
    ):
        clear_decode_cache()
        hypercall = hypercall_on_empty_table()
        # A shape no other test plans, so no earlier push has built
        # slices on the segments it plans.
        plan = Planner(xeon_16core()).plan(census(40, "full", 0.23, 19))
        missing = [core for core in plan.table.cores.values() if not core.slices]
        assert missing  # the planner leaves slice tables to the push
        hypercall.push_system_table(plan.table)
        received = list(hypercall.staged_table.cores.values())
        on_receiver = [core for core in builds if id(core) in set(map(id, received))]
        on_planner = [core for core in builds if id(core) in set(map(id, missing))]
        assert len(on_receiver) + len(on_planner) == len(builds)
        # Received cores of one name-free schedule share one slice table,
        # derived once, on the first of them.
        schedules = {schedule(core) for core in received}
        assert len(schedules) < len(received)
        assert sorted(map(schedule, on_receiver)) == sorted(schedules)
        assert len({id(core.slices) for core in received}) == len(schedules)
        # Cores of one shape share their segments and so their slice
        # table: it was derived once, on one of them.
        shared = {id(core.slices) for core in missing}
        assert len(shared) < len(missing)
        assert derivations_per_slice_table(builds, missing) == Counter(
            dict.fromkeys(shared, 1)
        )

    def test_repush_derives_nothing(self, builds):
        hypercall = hypercall_on_empty_table()
        plan = Planner(xeon_16core()).plan(census(44))
        hypercall.push_system_table(plan.table)
        first = hypercall.staged_table
        builds.clear()
        hypercall.push_system_table(plan.table)
        assert builds == []
        # Every received core binds the segments and slice table its
        # block brought the first time.
        for cpu, core in hypercall.staged_table.cores.items():
            assert core is not first.cores[cpu]
            assert core.slices is first.cores[cpu].slices
            assert core.allocations == first.cores[cpu].allocations


class TestDeltaPush:
    def test_builds_only_changed_cores_and_shares_the_rest(self, builds):
        clear_decode_cache()
        hypercall = hypercall_on_empty_table()
        daemon = PlannerDaemon(xeon_16core(), hypercall=hypercall)
        vms = census(44)
        boot = daemon.replan(vms, "boot")
        base = hypercall.staged_table
        base_slices = {cpu: core.slices for cpu, core in base.cores.items()}
        builds.clear()
        grown = daemon.replan(vms + [make_vm("vm44", 0.25, 20 * MS)], "create")
        assert daemon.history[-1].push.delta
        staged = hypercall.staged_table
        changed = {
            cpu
            for cpu, core in grown.table.cores.items()
            if not core.same_schedule(boot.table.cores[cpu])
        }
        assert changed and changed != set(staged.cores)
        # Changed cores of one name-free schedule share one slice table,
        # derived once, on one of them; nothing else derives.
        received = [staged.cores[cpu] for cpu in sorted(changed)]
        schedules = {schedule(core) for core in received}
        assert len({id(core.slices) for core in received}) == len(schedules)
        assert derivations_per_slice_table(builds, received) == Counter(
            dict.fromkeys({id(core.slices) for core in received}, 1)
        )
        assert len(builds) == len(schedules)
        for cpu, core in staged.cores.items():
            if cpu not in changed:
                assert core is base.cores[cpu]
                assert core.slices is base_slices[cpu]
        # The same delta again, on the same base: every schedule it
        # carries was received before, so nothing is derived.
        hypercall.push_system_table(boot.table)
        again_base = hypercall.staged_table
        builds.clear()
        hypercall.push_system_table_delta(
            grown.table, sorted(changed), hypercall.delta_generation
        )
        assert builds == []
        again = hypercall.staged_table
        for cpu, core in again.cores.items():
            if cpu in changed:
                assert core.slices is staged.cores[cpu].slices
                assert core.allocations == staged.cores[cpu].allocations
            else:
                assert core is again_base.cores[cpu]


def vcpus(prefix, utilization=0.25, latency_ms=20):
    return flatten_vcpus(census(8, prefix, utilization, latency_ms))


class TestTableCacheRebind:
    def test_hit_builds_nothing_when_cached_cores_have_slices(self, builds):
        cache = TableCache(Planner(uniform(4)))
        cached = cache.plan(vcpus("a"))
        cached.table.build_slices()
        builds.clear()
        rebound = cache.plan(vcpus("b"))
        assert cache.stats.hits == 1
        assert builds == []
        new_names = {vcpu.name for vcpu in vcpus("b")}
        for cpu, core in rebound.table.cores.items():
            source = cached.table.cores[cpu]
            assert core.slice_len_ns == source.slice_len_ns
            assert core.slices == source.slices
            for alloc in core.allocations:
                assert alloc.vcpu in new_names
                assert core.lookup((alloc.start + alloc.end) // 2) is alloc
                assert core.next_boundary(alloc.start) == alloc.end

    def test_slices_missing_on_the_cached_plan_are_built_once(self, builds):
        # A shape no other test plans (see the full-push test above).
        cache = TableCache(Planner(uniform(4)))
        cached = cache.plan(vcpus("a", 0.21, 17))
        assert not any(core.slices for core in cached.table.cores.values())
        rebound = cache.plan(vcpus("b", 0.21, 17))
        assert builds == []  # a rebind derives nothing
        rebound.table.build_slices(only_missing=True)
        # Two vCPUs of one shape per core: all four cores share one
        # segments object, so one derivation serves them all.
        shared = {id(core.slices) for core in rebound.table.cores.values()}
        assert len(shared) == 1
        assert len(builds) == 1
        builds.clear()
        again = cache.plan(vcpus("c", 0.21, 17))
        for cpu, core in again.table.cores.items():
            assert core.slices is rebound.table.cores[cpu].slices
        again.table.build_slices(only_missing=True)
        cached.table.build_slices(only_missing=True)
        assert builds == []
