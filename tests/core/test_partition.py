"""Tests for worst-fit-decreasing (and first-fit) partitioning."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition import (
    UTILIZATION_EPSILON,
    first_fit_decreasing,
    worst_fit_decreasing,
)
from repro.core.tasks import PeriodicTask


def task(name, utilization, period=1_000_000):
    return PeriodicTask(name=name, cost=int(utilization * period), period=period)


class TestWorstFitDecreasing:
    def test_exact_fit_four_quarters_per_core(self):
        tasks = [task(f"t{i}", 0.25) for i in range(8)]
        result = worst_fit_decreasing(tasks, [0, 1])
        assert result.success
        assert all(len(ts) == 4 for ts in result.assignment.values())

    def test_load_spread_evenly(self):
        tasks = [task(f"t{i}", 0.2) for i in range(10)]
        result = worst_fit_decreasing(tasks, [0, 1, 2, 3, 4])
        utils = [result.utilization_of(c) for c in range(5)]
        assert max(utils) - min(utils) < 1e-9

    def test_wfd_spreads_while_ffd_concentrates(self):
        tasks = [task(f"t{i}", 0.3) for i in range(4)]
        wfd = worst_fit_decreasing(tasks, [0, 1, 2, 3])
        ffd = first_fit_decreasing(tasks, [0, 1, 2, 3])
        assert wfd.spread() < ffd.spread()
        # FFD packs three 0.3 tasks on core 0; WFD puts one per core.
        assert len(ffd.assignment[0]) == 3
        assert all(len(ts) == 1 for ts in wfd.assignment.values())

    def test_unassignable_task_reported(self):
        tasks = [task("big1", 0.6), task("big2", 0.6), task("big3", 0.6)]
        result = worst_fit_decreasing(tasks, [0, 1])
        assert not result.success
        assert [t.name for t in result.unassigned] == ["big3"]

    def test_decreasing_order_places_large_tasks_first(self):
        tasks = [task("small", 0.1), task("large", 0.9)]
        result = worst_fit_decreasing(tasks, [0, 1])
        assert result.success
        large_core = next(
            c for c, ts in result.assignment.items() if any(t.name == "large" for t in ts)
        )
        assert result.utilization_of(large_core) <= 1.0

    def test_capacity_limits_respected(self):
        tasks = [task("a", 0.5), task("b", 0.5)]
        result = worst_fit_decreasing(tasks, [0, 1], capacities={0: 0.4, 1: 0.6})
        assert not result.success or all(
            result.utilization_of(c) <= cap + 1e-9
            for c, cap in {0: 0.4, 1: 0.6}.items()
        )

    def test_empty_task_set(self):
        result = worst_fit_decreasing([], [0, 1])
        assert result.success
        assert result.assignment == {0: [], 1: []}

    def test_deterministic_tie_breaking(self):
        tasks = [task(f"t{i}", 0.25) for i in range(8)]
        r1 = worst_fit_decreasing(tasks, [0, 1])
        r2 = worst_fit_decreasing(tasks, [0, 1])
        assert {c: [t.name for t in ts] for c, ts in r1.assignment.items()} == {
            c: [t.name for t in ts] for c, ts in r2.assignment.items()
        }

    def test_rounded_costs_still_pack_exactly(self):
        # Regression: ceil-rounded costs used to make 4x0.25 unpackable.
        period = 12_837_825  # not divisible by 4
        tasks = [
            PeriodicTask(name=f"t{i}", cost=period // 4, period=period)
            for i in range(8)
        ]
        result = worst_fit_decreasing(tasks, [0, 1])
        assert result.success


def reference_wfd(tasks, cores, capacities=None, rotation=0):
    """WFD as a rank dict and a scan: ties among equal utilizations break
    by each name's place in sorted order, rotated by ``rotation``; each
    task goes to the least-loaded core it fits on, the earliest on a tie."""
    capacities = capacities or {}
    names = sorted(t.name for t in tasks)
    rank = {
        name: (index - rotation) % max(1, len(names))
        for index, name in enumerate(names)
    }
    ordered = sorted(tasks, key=lambda t: (-(t.cost / t.period), rank[t.name]))
    load = {core: 0.0 for core in cores}
    assignment = {core: [] for core in cores}
    unassigned = []
    for t in ordered:
        utilization = t.cost / t.period
        best = None
        for core in cores:
            if load[core] + utilization <= capacities.get(core, 1.0) + UTILIZATION_EPSILON:
                if best is None or load[core] < load[best]:
                    best = core
        if best is None:
            unassigned.append(t.name)
        else:
            assignment[best].append(t.name)
            load[best] += utilization
    return assignment, unassigned


@st.composite
def tied_task_sets(draw):
    """Uniquely named tasks whose utilizations tie often (0.125 is both
    125,000 of 1 ms and 250,000 of 2 ms), in a shuffled order."""
    count = draw(st.integers(0, 14))
    names = draw(
        st.lists(
            st.text(alphabet="ab.#01", min_size=1, max_size=4),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    tasks = []
    for name in names:
        period = draw(st.sampled_from([1_000_000, 2_000_000]))
        share = draw(st.sampled_from([0.0625, 0.125, 0.25, 0.3, 0.5, 0.7]))
        tasks.append(PeriodicTask(name=name, cost=int(share * period), period=period))
    return draw(st.permutations(tasks))


class TestOrderMatchesRankReference:
    """At every rotation, WFD's placement equals the rank-dict reference,
    on uniform capacity (the planner's heap path) and on a scan."""

    @settings(max_examples=300, deadline=None)
    @given(
        tasks=tied_task_sets(),
        num_cores=st.integers(1, 4),
        rotation=st.one_of(st.just(0), st.integers(0, 20)),
        capped=st.booleans(),
    )
    def test_placement_equals_reference(self, tasks, num_cores, rotation, capped):
        cores = list(range(num_cores))
        capacities = {0: 0.75} if capped else None
        result = worst_fit_decreasing(tasks, cores, capacities, rotation=rotation)
        assignment = {
            core: [t.name for t in placed] for core, placed in result.assignment.items()
        }
        unassigned = [t.name for t in result.unassigned]
        assert (assignment, unassigned) == reference_wfd(
            tasks, cores, capacities, rotation
        )


class TestFirstFitDecreasing:
    def test_exact_fit(self):
        tasks = [task(f"t{i}", 0.5) for i in range(4)]
        result = first_fit_decreasing(tasks, [0, 1])
        assert result.success

    def test_reports_unassigned(self):
        tasks = [task(f"t{i}", 0.7) for i in range(3)]
        result = first_fit_decreasing(tasks, [0, 1])
        assert len(result.unassigned) == 1
