"""Tests for the daemon's caching and split-rotation extensions."""

import pytest

from repro.core import MS, make_vm
from repro.topology import uniform
from repro.xen import PlannerDaemon


def specs(prefix, count=8, utilization=0.25):
    return [make_vm(f"{prefix}{i}", utilization, 20 * MS) for i in range(count)]


class TestDaemonCache:
    def test_same_shape_census_hits_cache(self):
        daemon = PlannerDaemon(uniform(2), cache=True)
        daemon.replan(specs("web"), reason="boot")
        daemon.replan(specs("db"), reason="rename-church")
        assert daemon.cache.stats.hits == 1

    def test_cached_plan_covers_new_names(self):
        daemon = PlannerDaemon(uniform(2), cache=True)
        daemon.replan(specs("web"), reason="boot")
        result = daemon.replan(specs("db"), reason="swap")
        assert set(result.vcpus) == {f"db{i}.vcpu0" for i in range(8)}
        for name in result.vcpus:
            assert result.table.utilization_of(name) == pytest.approx(
                0.25, abs=1e-3
            )

    def test_hit_gets_its_own_stats(self):
        daemon = PlannerDaemon(uniform(2), cache=True)
        boot = daemon.replan(specs("web"), reason="boot")
        daemon.replan(specs("db", utilization=0.2), reason="swap")
        back = daemon.replan(specs("web"), reason="swap-back")
        assert daemon.cache.stats.hits == 1
        assert back.stats is not boot.stats
        assert back.stats.plan_cache_hit
        assert back.stats.generation_seconds == 0.0
        assert daemon.history[-1].generation_seconds == 0.0
        assert (back.stats.method, back.stats.num_vcpus, back.stats.table_bytes) == (
            boot.stats.method,
            boot.stats.num_vcpus,
            boot.stats.table_bytes,
        )
        # The miss that filled the cache keeps its own record.
        assert not boot.stats.plan_cache_hit
        assert boot.stats.generation_seconds > 0.0

    def test_cache_disabled_by_default(self):
        daemon = PlannerDaemon(uniform(2))
        assert daemon.cache is None


class TestSplitRotation:
    def _split_specs(self):
        # Three 0.6 VMs on two cores: one must be split.
        return [make_vm(f"vm{i}", 0.6, 100 * MS) for i in range(3)]

    def test_rotation_moves_the_split_victim(self):
        daemon = PlannerDaemon(uniform(2))
        victims = set()
        plan = daemon.replan(self._split_specs(), reason="boot")
        victims.add(next(n for n in plan.vcpus if plan.table.is_split(n)))
        for _ in range(4):
            plan = daemon.rotate_table(self._split_specs())
            victims.add(next(n for n in plan.vcpus if plan.table.is_split(n)))
        # Over a few rotations, more than one VM takes the penalty.
        assert len(victims) >= 2

    def test_rotation_preserves_guarantees(self):
        daemon = PlannerDaemon(uniform(2))
        daemon.replan(self._split_specs(), reason="boot")
        plan = daemon.rotate_table(self._split_specs())
        for name in plan.vcpus:
            assert plan.table.utilization_of(name) == pytest.approx(
                0.6, abs=1e-3
            )
            assert plan.table.max_blackout_ns(name) <= 100 * MS

    def test_rotation_recorded_in_history(self):
        daemon = PlannerDaemon(uniform(2))
        daemon.replan(self._split_specs(), reason="boot")
        daemon.rotate_table(self._split_specs())
        assert daemon.history[-1].reason == "rotate split victim"
