"""Tests for the planner's per-core shape cache and parallel path.

The cache and the process pool are pure wall-clock optimizations: every
plan they produce must be indistinguishable from a cold, serial plan.
These tests pin that equivalence down, plus the hit accounting.
"""

import pytest

import repro.core.planner as planner_mod
from repro.core import MS, Planner, edfcore, make_vm
from repro.topology import xeon_16core


def census(n, util=0.25, latency_ms=20):
    return [make_vm(f"vm{i:02d}", util, latency_ms * MS) for i in range(n)]


def table_layout(result):
    return {
        cpu: [(a.start, a.end, a.vcpu) for a in table.allocations]
        for cpu, table in result.table.cores.items()
    }


class TestCoreTableMemo:
    def test_replan_same_census_is_all_hits(self):
        planner = Planner(xeon_16core())
        first = planner.plan(census(40))
        misses = planner.core_cache_misses
        second = planner.plan(census(40))
        assert planner.core_cache_misses == misses  # no new simulations
        assert planner.core_cache_hits > 0
        assert table_layout(first) == table_layout(second)

    def test_cached_plan_matches_cold_planner(self):
        warm = Planner(xeon_16core())
        warm.plan(census(40))
        cached = warm.plan(census(41))
        cold = Planner(xeon_16core()).plan(census(41))
        assert table_layout(cached) == table_layout(cold)

    def test_incremental_census_only_resimulates_changed_cores(self, monkeypatch):
        runs = []
        run_pipeline = planner_mod.run_pipeline

        def counting(*args, **kwargs):
            runs.append(args)
            return run_pipeline(*args, **kwargs)

        monkeypatch.setattr(planner_mod, "run_pipeline", counting)
        edfcore.clear_shape_cache()
        planner = Planner(xeon_16core())
        planner.plan(census(40))
        before = planner.core_cache_misses
        # Cores of one shape share a single pipeline run.
        assert 0 < len(runs) < before
        runs.clear()
        planner.plan(census(40) + [make_vm("new", 0.2, 10 * MS)])
        # Only the core handed the new VM has a task shape the cache has
        # not seen; every other core is a hit, however it is named.
        assert planner.core_cache_misses - before == 1
        assert len(runs) == 1

    def test_cleared_shape_cache_makes_a_fresh_planner_run_cold(self):
        guest_cores = len(xeon_16core().guest_cores)
        Planner(xeon_16core()).plan(census(40))
        warm = Planner(xeon_16core())
        warm.plan(census(40))
        # The shape cache is process-wide: a new planner still hits it.
        assert (warm.core_cache_hits, warm.core_cache_misses) == (guest_cores, 0)
        edfcore.clear_shape_cache()
        cold = Planner(xeon_16core())
        assert table_layout(cold.plan(census(40))) == table_layout(
            warm.plan(census(40))
        )
        assert (cold.core_cache_hits, cold.core_cache_misses) == (0, guest_cores)

    def test_cached_tables_pass_guarantee_audit(self):
        planner = Planner(xeon_16core())
        planner.plan(census(48))
        result = planner.plan(census(48))  # fully cached replan
        for spec in result.vcpus.values():
            assert result.table.max_blackout_ns(spec.name) <= spec.latency_ns
        result.table.validate()

    def test_distinct_knobs_do_not_share_entries(self):
        # The coalesce threshold participates in the memo key: changing
        # it must not resurrect tables built under the old threshold.
        sparse = Planner(xeon_16core(), coalesce_threshold_ns=10_000)
        sparse.plan(census(40))
        tight = Planner(xeon_16core(), coalesce_threshold_ns=200_000)
        layout_a = table_layout(tight.plan(census(40)))
        layout_b = table_layout(Planner(xeon_16core(), coalesce_threshold_ns=200_000).plan(census(40)))
        assert layout_a == layout_b


class TestParallelMaterialization:
    def test_pool_result_identical_to_serial(self, monkeypatch):
        serial = Planner(xeon_16core(), parallel=False).plan(census(48))
        monkeypatch.setattr(planner_mod, "PARALLEL_MIN_JOBS", 0)
        pooled = Planner(xeon_16core(), parallel=True).plan(census(48))
        assert table_layout(pooled) == table_layout(serial)

    def test_parallel_disabled_never_pools(self, monkeypatch):
        def boom(self, pending):  # pragma: no cover - must not run
            raise AssertionError("process pool engaged with parallel=False")

        monkeypatch.setattr(planner_mod, "PARALLEL_MIN_JOBS", 0)
        monkeypatch.setattr(Planner, "_materialize_parallel", boom)
        Planner(xeon_16core(), parallel=False).plan(census(40))

    def test_pool_failure_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setattr(planner_mod, "PARALLEL_MIN_JOBS", 0)
        monkeypatch.setattr(
            Planner, "_materialize_parallel", lambda self, pending: None
        )
        result = Planner(xeon_16core(), parallel=True).plan(census(40))
        cold = Planner(xeon_16core(), parallel=False).plan(census(40))
        assert table_layout(result) == table_layout(cold)
