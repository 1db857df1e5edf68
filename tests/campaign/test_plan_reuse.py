"""Plan reuse across the experiment drivers.

``experiments.scenarios.plan_for`` memoizes its plans per process and
counts the hits, so campaigns and tests can verify planning work was
actually skipped.  The Fig. 3/4 scaling sweeps are the opposite case:
they time table generation, so every repetition must plan cold.
"""

import pytest

from repro.core import Planner
from repro.errors import ConfigurationError
from repro.experiments import planner_scaling, scenarios
from repro.experiments.planner_scaling import (
    full_sweep,
    measure_point,
    scaling_curve,
)
from repro.topology import uniform


@pytest.fixture(autouse=True)
def fresh_memo():
    scenarios.reset_plan_memo()
    yield
    scenarios.reset_plan_memo()


class TestPlanForMemo:
    def test_repeat_census_hits_memo(self):
        # A hit shares the planned table but has its own stats, so the
        # plan the first call returned still reads as planned.
        scenarios.reset_plan_memo()
        before = scenarios.plan_for_cache_hits
        first = scenarios.plan_for(uniform(4), 8, False)
        assert scenarios.plan_for_cache_hits == before
        second = scenarios.plan_for(uniform(4), 8, False)
        assert scenarios.plan_for_cache_hits == before + 1
        assert second is not first
        assert second.table is first.table
        assert second.tasks is first.tasks
        assert second.stats is not first.stats
        assert second.stats.plan_cache_hit
        assert second.stats.generation_seconds == 0.0
        assert not first.stats.plan_cache_hit

    def test_distinct_censuses_do_not_collide(self):
        a = scenarios.plan_for(uniform(4), 8, False)
        b = scenarios.plan_for(uniform(4), 8, True)
        c = scenarios.plan_for(uniform(4), 8, False, latency_ns=1_000_000)
        d = scenarios.plan_for(uniform(8), 8, False)
        e = scenarios.plan_for(uniform(4), 12, False)
        assert len({id(plan) for plan in (a, b, c, d, e)}) == 5


    def test_default_latency_is_the_explicit_one(self):
        first = scenarios.plan_for(uniform(4), 8, False)
        again = scenarios.plan_for(
            uniform(4), 8, False, latency_ns=scenarios.VM_LATENCY_NS
        )
        assert again.table is first.table

    def test_reset_replans_the_same_census(self):
        first = scenarios.plan_for(uniform(4), 8, False)
        hits = scenarios.plan_for_cache_hits
        scenarios.reset_plan_memo()
        again = scenarios.plan_for(uniform(4), 8, False)
        assert scenarios.plan_for_cache_hits == hits
        assert again is not first
        assert not again.stats.plan_cache_hit
        assert again.table.cores == first.table.cores


class TestScalingSweep:
    def test_every_repetition_plans_cold(self, monkeypatch):
        # Counted, not timed: each repetition gets its own planner (no
        # whole-plan memo hit) and finds the shape cache empty.
        planners = []

        class RecordingPlanner(Planner):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                planners.append(self)

        monkeypatch.setattr(planner_scaling, "Planner", RecordingPlanner)
        topo = uniform(4)
        measure_point(8, 30, topo)  # leaves the shape cache warm
        planners.clear()
        measure_point(8, 30, topo, repetitions=3)
        assert len(planners) == 3
        for planner in planners:
            assert planner.plan_memo_hits == 0
            assert planner.core_cache_hits == 0
            assert planner.core_cache_misses == len(topo.guest_cores)

    def test_repetitions_agree_on_the_table(self):
        topo = uniform(4)
        once = measure_point(8, 30, topo)
        thrice = measure_point(8, 30, topo, repetitions=3)
        assert (thrice.num_vms, thrice.latency_ms) == (8, 30)
        assert thrice.table_bytes == once.table_bytes > 0
        assert thrice.generation_s > 0.0

    @pytest.mark.parametrize("repetitions", [0, -1])
    def test_no_repetition_is_a_configuration_error(self, repetitions):
        with pytest.raises(ConfigurationError, match="repetitions"):
            measure_point(8, 30, uniform(4), repetitions=repetitions)

    def test_curve_and_sweep_cover_every_point(self):
        topo = uniform(4)
        curve = scaling_curve(30, vm_counts=(4, 8), topology=topo)
        assert [p.num_vms for p in curve] == [4, 8]
        assert all(p.table_bytes > 0 for p in curve)

        sweep = full_sweep(topology=topo, vm_counts=(4,))
        assert len(sweep) == 4  # one point per latency goal
