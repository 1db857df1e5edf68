"""Property-based tests (hypothesis) for the planner's core invariants."""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import (
    MS,
    Planner,
    VCpuSpec,
    candidate_periods,
    deserialize,
    edf_schedulable,
    max_blackout_ns,
    select_period,
    serialize,
    simulate_edf,
    vcpu_to_task,
    worst_fit_decreasing,
)
from repro.core.postprocess import coalesce
from repro.core.table import validate_against_tasks
from repro.core.tasks import PeriodicTask
from repro.errors import LatencyInfeasibleError
from repro.topology import uniform

utilizations = st.floats(min_value=0.01, max_value=0.99, allow_nan=False)
latencies = st.integers(min_value=1 * MS, max_value=500 * MS)


class TestPeriodSelectionProperties:
    @given(utilization=utilizations, latency=latencies)
    def test_blackout_bound_never_violated(self, utilization, latency):
        try:
            period = select_period(utilization, latency)
        except LatencyInfeasibleError:
            return
        assert max_blackout_ns(utilization, period) <= latency

    @given(utilization=utilizations, latency=latencies)
    def test_selected_period_is_always_a_candidate(self, utilization, latency):
        try:
            period = select_period(utilization, latency)
        except LatencyInfeasibleError:
            return
        assert period in candidate_periods()

    @given(utilization=utilizations, latency=latencies)
    def test_task_mapping_preserves_utilization_to_one_ns(self, utilization, latency):
        vcpu = VCpuSpec("v", utilization, latency)
        try:
            task = vcpu_to_task(vcpu)
        except LatencyInfeasibleError:
            return
        fluid = utilization * task.period
        assert fluid - 1 < task.cost <= fluid or task.cost == 1


class TestEdfSimulationProperties:
    @st.composite
    def harmonic_task_set(draw):
        """Task sets with periods dividing 1.2 ms and bounded utilization."""
        periods = [100_000, 150_000, 200_000, 300_000, 400_000, 600_000, 1_200_000]
        count = draw(st.integers(min_value=1, max_value=5))
        tasks = []
        budget = 1.0
        for i in range(count):
            period = draw(st.sampled_from(periods))
            max_util = min(0.8, budget)
            assume(max_util > 0.02)
            util = draw(st.floats(min_value=0.02, max_value=max_util))
            cost = max(1, int(util * period))
            budget -= cost / period
            tasks.append(PeriodicTask(name=f"t{i}", cost=cost, period=period))
        return tasks

    @given(tasks=harmonic_task_set())
    @settings(max_examples=50, deadline=None)
    def test_simulated_schedule_serves_every_job(self, tasks):
        table = simulate_edf(tasks, 1_200_000)
        validate_against_tasks(table, tasks)

    @given(tasks=harmonic_task_set())
    @settings(max_examples=50, deadline=None)
    def test_dbf_test_agrees_with_simulation(self, tasks):
        # The analytical test admits the set; the simulation must succeed.
        assert edf_schedulable(tasks, 1_200_000)
        simulate_edf(tasks, 1_200_000)  # must not raise

    @given(tasks=harmonic_task_set())
    @settings(max_examples=50, deadline=None)
    def test_busy_time_equals_total_demand(self, tasks):
        table = simulate_edf(tasks, 1_200_000)
        expected = sum(t.cost * (1_200_000 // t.period) for t in tasks)
        assert table.busy_ns == expected

    @given(tasks=harmonic_task_set())
    @settings(max_examples=50, deadline=None)
    def test_coalescing_conserves_busy_time(self, tasks):
        table = simulate_edf(tasks, 1_200_000)
        coalesced, report = coalesce(table, threshold_ns=5_000)
        dropped = sum(report.lost_ns.values()) - sum(report.gained_ns.values())
        assert coalesced.busy_ns == table.busy_ns - dropped


class TestPartitioningProperties:
    @given(
        utils=st.lists(
            st.floats(min_value=0.05, max_value=1.0), min_size=1, max_size=24
        ),
        cores=st.integers(min_value=1, max_value=8),
    )
    def test_no_core_ever_overloaded(self, utils, cores):
        tasks = [
            PeriodicTask(name=f"t{i}", cost=max(1, int(u * 1_000_000)), period=1_000_000)
            for i, u in enumerate(utils)
        ]
        result = worst_fit_decreasing(tasks, list(range(cores)))
        for core in range(cores):
            assert result.utilization_of(core) <= 1.0 + 1e-9

    @given(
        utils=st.lists(
            st.floats(min_value=0.05, max_value=1.0), min_size=1, max_size=24
        ),
        cores=st.integers(min_value=1, max_value=8),
    )
    def test_every_task_placed_or_reported(self, utils, cores):
        tasks = [
            PeriodicTask(name=f"t{i}", cost=max(1, int(u * 1_000_000)), period=1_000_000)
            for i, u in enumerate(utils)
        ]
        result = worst_fit_decreasing(tasks, list(range(cores)))
        placed = sum(len(ts) for ts in result.assignment.values())
        assert placed + len(result.unassigned) == len(tasks)


class TestPlannerProperties:
    @given(
        n_vms=st.integers(min_value=1, max_value=12),
        utilization=st.floats(min_value=0.05, max_value=0.45),
        latency_ms=st.sampled_from([5, 20, 50, 100]),
    )
    @settings(max_examples=25, deadline=None)
    def test_guarantees_hold_for_feasible_inputs(self, n_vms, utilization, latency_ms):
        assume(n_vms * utilization <= 2.0)
        from repro.core import make_vm

        vms = [make_vm(f"vm{i}", utilization, latency_ms * MS) for i in range(n_vms)]
        result = Planner(uniform(2)).plan(vms)
        for name in result.vcpus:
            assert result.table.utilization_of(name) >= utilization - 1e-3
            assert result.table.max_blackout_ns(name) <= latency_ms * MS + 20_000

    @given(
        n_vms=st.integers(min_value=1, max_value=8),
        utilization=st.floats(min_value=0.05, max_value=0.45),
    )
    @settings(max_examples=15, deadline=None)
    def test_serialization_round_trip_is_lossless(self, n_vms, utilization):
        assume(n_vms * utilization <= 2.0)
        from repro.core import make_vm

        vms = [make_vm(f"vm{i}", utilization, 50 * MS) for i in range(n_vms)]
        result = Planner(uniform(2)).plan(vms)
        restored = deserialize(serialize(result.table))
        for cpu, table in result.table.cores.items():
            assert restored.cores[cpu].allocations == table.allocations


class TestSliceProperties:
    @given(tasks=TestEdfSimulationProperties.harmonic_task_set())
    @settings(max_examples=50, deadline=None)
    def test_slice_lookup_agrees_with_linear_scan(self, tasks):
        table = simulate_edf(tasks, 1_200_000)
        table.build_slices()
        for t in range(0, 1_200_000, 17_041):
            expected = next(
                (a for a in table.allocations if a.start <= t < a.end), None
            )
            assert table.lookup(t) == expected

    @given(tasks=TestEdfSimulationProperties.harmonic_task_set())
    @settings(max_examples=50, deadline=None)
    def test_at_most_two_allocations_overlap_any_slice(self, tasks):
        table = simulate_edf(tasks, 1_200_000)
        table.build_slices()
        for index in range(len(table.slices) // 2):  # two entries per slice
            lo = index * table.slice_len_ns
            hi = min(lo + table.slice_len_ns, table.length_ns)
            overlapping = [a for a in table.allocations if a.start < hi and a.end > lo]
            assert len(overlapping) <= 2
