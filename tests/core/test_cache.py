"""Tests for the table cache (Sec. 7.1's caching optimization)."""

import pytest

from repro.core import MS, Planner, TableCache, census_signature, make_vm
from repro.core.params import flatten_vcpus
from repro.topology import uniform


def census(prefix, count=8, utilization=0.25, latency_ms=20):
    vms = [
        make_vm(f"{prefix}{i}", utilization, latency_ms * MS) for i in range(count)
    ]
    return flatten_vcpus(vms)


class TestSignature:
    def test_order_independent(self):
        a = census("a")
        assert census_signature(a) == census_signature(list(reversed(a)))

    def test_names_do_not_matter(self):
        assert census_signature(census("web")) == census_signature(census("db"))

    def test_parameters_do_matter(self):
        assert census_signature(census("a", utilization=0.25)) != census_signature(
            census("a", utilization=0.5)
        )
        assert census_signature(census("a", latency_ms=20)) != census_signature(
            census("a", latency_ms=30)
        )


class TestTableCache:
    def test_first_plan_misses(self):
        cache = TableCache(Planner(uniform(2)))
        cache.plan(census("a"))
        assert cache.stats.misses == 1
        assert cache.stats.hits == 0

    def test_same_shape_hits(self):
        cache = TableCache(Planner(uniform(2)))
        cache.plan(census("web"))
        cache.plan(census("db"))  # different names, same shape
        assert cache.stats.hits == 1
        assert cache.stats.hit_rate == 0.5

    def test_rebinding_renames_all_allocations(self):
        cache = TableCache(Planner(uniform(2)))
        cache.plan(census("web"))
        result = cache.plan(census("db"))
        names = {
            a.vcpu
            for t in result.table.cores.values()
            for a in t.allocations
            if a.vcpu is not None
        }
        assert names == {f"db{i}.vcpu0" for i in range(8)}

    def test_rebound_plan_keeps_guarantees(self):
        cache = TableCache(Planner(uniform(2)))
        cache.plan(census("web"))
        result = cache.plan(census("db"))
        for name in result.vcpus:
            assert result.table.utilization_of(name) == pytest.approx(
                0.25, abs=1e-3
            )
            assert result.table.max_blackout_ns(name) <= 20 * MS

    def test_rebound_tasks_reference_new_specs(self):
        cache = TableCache(Planner(uniform(2)))
        cache.plan(census("web"))
        result = cache.plan(census("db"))
        task = result.task_of("db0.vcpu0")
        assert task.vcpu is result.vcpus["db0.vcpu0"]

    def test_mixed_shapes_cached_separately(self):
        cache = TableCache(Planner(uniform(2)))
        cache.plan(census("a", utilization=0.25))
        cache.plan(census("b", utilization=0.5, count=4))
        cache.plan(census("c", utilization=0.25))
        assert cache.stats.misses == 2
        assert cache.stats.hits == 1
        assert len(cache) == 2

    def test_lru_eviction(self):
        cache = TableCache(Planner(uniform(2)), capacity=2)
        cache.plan(census("a", utilization=0.1))
        cache.plan(census("b", utilization=0.2))
        cache.plan(census("c", utilization=0.3, count=4))  # evicts the 0.1 shape
        assert cache.stats.evictions == 1
        cache.plan(census("d", utilization=0.1))  # miss again
        assert cache.stats.misses == 4

    def test_miss_reports_its_own_planning(self):
        cache = TableCache(Planner(uniform(2)))
        result = cache.plan(census("a"))
        assert not result.stats.plan_cache_hit
        assert result.stats.generation_seconds > 0.0

    def test_hit_stats_copy_the_plan_not_the_timing(self):
        cache = TableCache(Planner(uniform(2)))
        # Three 0.6 VMs on two cores force a C=D split, so the copied
        # split and cluster counts are not all zero.
        miss = cache.plan(census("web", count=3, utilization=0.6))
        hit = cache.plan(census("db", count=3, utilization=0.6))
        assert miss.stats.split_tasks > 0
        assert hit.stats is not miss.stats
        assert hit.stats.plan_cache_hit
        assert hit.stats.generation_seconds == 0.0
        for attr in (
            "method", "num_vcpus", "num_tasks", "split_tasks",
            "cluster_cores", "table_bytes",
        ):
            assert getattr(hit.stats, attr) == getattr(miss.stats, attr), attr

    def test_hits_share_no_stats(self):
        cache = TableCache(Planner(uniform(2)))
        miss = cache.plan(census("a", count=3, utilization=0.6))
        first = cache.plan(census("b", count=3, utilization=0.6))
        second = cache.plan(census("c", count=3, utilization=0.6))
        assert first.stats is not second.stats
        first.stats.cluster_cores.append(99)
        assert 99 not in second.stats.cluster_cores
        assert 99 not in miss.stats.cluster_cores

    def test_cache_is_much_faster_than_planning(self):
        import time

        cache = TableCache(Planner(uniform(4)))
        big = census("x", count=16, latency_ms=5)
        started = time.perf_counter()
        cache.plan(big)
        cold = time.perf_counter() - started
        # Best of three hits: a single measurement can eat a scheduler
        # preemption on a loaded container and flake the comparison.
        warm = min(
            self._timed_hit(cache, census("y", count=16, latency_ms=5))
            for _ in range(3)
        )
        assert warm < cold  # rename is cheaper than replanning

    @staticmethod
    def _timed_hit(cache, vms):
        import time

        started = time.perf_counter()
        cache.plan(vms)
        return time.perf_counter() - started
