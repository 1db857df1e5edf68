"""Each slice table on the push path is derived once.

Counts :meth:`CoreTable.derive_slices` calls per core object (the one
derivation; ``build_slices`` and the decoder both call it): the decoder
derives every pushed core's slice table, the dispatcher installs it
without rebuilding, a delta push rebuilds only the cores it carries, and
a table-cache rebind reuses the cached geometry.
"""

from collections import Counter

import pytest

from repro.core import MS, Planner, make_vm
from repro.core.cache import TableCache
from repro.core.params import flatten_vcpus
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


def once_each(cores):
    return Counter({id(core): 1 for core in cores})


def hypercall_on_empty_table():
    return TableHypercall(TableauScheduler(SystemTable(length_ns=MS, cores={})))


class TestFullPush:
    def test_one_build_per_received_core_plus_missing_planner_cores(self, builds):
        hypercall = hypercall_on_empty_table()
        # A shape no other test plans, so no earlier push has built
        # slices on the cores it plans.
        plan = Planner(xeon_16core()).plan(census(40, "full", 0.23, 19))
        missing = [core for core in plan.table.cores.values() if not core.slices]
        assert missing  # the planner leaves slice tables to the push
        hypercall.push_system_table(plan.table)
        assert Counter(map(id, builds)) == once_each(
            missing + list(hypercall.staged_table.cores.values())
        )

    def test_repush_builds_only_on_the_receiver(self, builds):
        hypercall = hypercall_on_empty_table()
        plan = Planner(xeon_16core()).plan(census(44))
        hypercall.push_system_table(plan.table)
        builds.clear()
        hypercall.push_system_table(plan.table)
        assert Counter(map(id, builds)) == once_each(
            hypercall.staged_table.cores.values()
        )


class TestDeltaPush:
    def test_builds_only_changed_cores_and_shares_the_rest(self, builds):
        hypercall = hypercall_on_empty_table()
        daemon = PlannerDaemon(xeon_16core(), hypercall=hypercall)
        vms = census(44)
        daemon.replan(vms, "boot")
        base = hypercall.staged_table
        base_slices = {cpu: core.slices for cpu, core in base.cores.items()}
        builds.clear()
        daemon.replan(vms + [make_vm("vm44", 0.25, 20 * MS)], "create")
        assert daemon.history[-1].push.delta
        staged = hypercall.staged_table
        changed = set(daemon.current_plan.stats.changed_cores or ())
        assert changed and changed != set(staged.cores)
        assert Counter(map(id, builds)) == once_each(
            staged.cores[cpu] for cpu in changed
        )
        for cpu, core in staged.cores.items():
            if cpu not in changed:
                assert core is base.cores[cpu]
                assert core.slices is base_slices[cpu]


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
        missing = [core for core in cached.table.cores.values() if not core.slices]
        assert missing
        cache.plan(vcpus("b", 0.21, 17))
        assert Counter(map(id, builds)) == once_each(missing)
        builds.clear()
        cache.plan(vcpus("c", 0.21, 17))
        assert builds == []
