"""End-to-end tests for the Tableau planner."""

import pytest

from repro.core import (
    METHOD_CLUSTERED,
    METHOD_PARTITIONED,
    METHOD_SEMI_PARTITIONED,
    MS,
    Planner,
    SystemTable,
    VCpuSpec,
    deserialize,
    make_vm,
    serialize,
)
from repro.core import edfcore
from repro.errors import AdmissionError, PlanningError
from repro.topology import uniform, xeon_16core


def plan_uniform(num_vms, utilization, latency_ms, cores=4, **kwargs):
    vms = [make_vm(f"vm{i:03d}", utilization, latency_ms * MS) for i in range(num_vms)]
    return Planner(uniform(cores), **kwargs).plan(vms)


class TestPaperConfiguration:
    """The paper's evaluation setup: 4 single-vCPU VMs per core at 25%."""

    @pytest.fixture(scope="class")
    def result(self):
        vms = [make_vm(f"vm{i:02d}", 0.25, 20 * MS) for i in range(48)]
        return Planner(xeon_16core()).plan(vms)

    def test_partitioning_suffices(self, result):
        assert result.stats.method == METHOD_PARTITIONED

    def test_period_matches_paper(self, result):
        # Sec 7.2: "period of roughly 13 ms with a budget of about 3.2 ms".
        task = result.task_of("vm00.vcpu0")
        assert 12 * MS <= task.period <= 14 * MS
        assert 3 * MS <= task.cost <= 3_400_000

    def test_blackout_under_latency_goal_for_all_vms(self, result):
        for name in result.vcpus:
            assert result.table.max_blackout_ns(name) <= 20 * MS

    def test_utilization_guarantee_for_all_vms(self, result):
        for name in result.vcpus:
            assert result.table.utilization_of(name) == pytest.approx(0.25, abs=1e-4)

    def test_guest_cores_only(self, result):
        reserved = set(xeon_16core().reserved_cores)
        assert not (set(result.table.cores) & reserved)

    def test_four_vms_per_core(self, result):
        for core, tasks in result.assignment.items():
            assert len(tasks) == 4

    def test_no_split_vcpus(self, result):
        assert all(not result.table.is_split(v) for v in result.vcpus)

    def test_table_round_trips(self, result):
        restored = deserialize(serialize(result.table))
        assert restored.length_ns == result.table.length_ns


class TestMethodEscalation:
    def test_easy_set_is_partitioned(self):
        result = plan_uniform(8, 0.25, 100, cores=2)
        assert result.stats.method == METHOD_PARTITIONED

    def test_awkward_set_is_semi_partitioned(self):
        result = plan_uniform(3, 0.6, 100, cores=2)
        assert result.stats.method == METHOD_SEMI_PARTITIONED
        assert result.stats.split_tasks >= 1

    def test_semi_partitioned_guarantees_hold(self):
        result = plan_uniform(3, 0.6, 100, cores=2)
        for name in result.vcpus:
            assert result.table.utilization_of(name) == pytest.approx(0.6, abs=1e-3)
            assert result.table.max_blackout_ns(name) <= 100 * MS

    def test_split_vcpu_flagged_in_table(self):
        result = plan_uniform(3, 0.6, 100, cores=2)
        assert any(result.table.is_split(v) for v in result.vcpus)

    def test_no_parallel_service_for_split_vcpus(self):
        result = plan_uniform(3, 0.6, 100, cores=2)
        assert result.table.overlapping_service() == []


def census_of(pairs):
    """VMs ``vm0``, ``vm1``, ... from ``(U, L in ms)`` pairs."""
    return [make_vm(f"vm{i}", u, latency_ms * MS) for i, (u, latency_ms) in enumerate(pairs)]


def plan_outcome(result):
    stats = result.stats
    return (
        {
            cpu: [(a.start, a.end, a.vcpu) for a in core.allocations]
            for cpu, core in result.table.cores.items()
        },
        result.table.vcpu_names,
        result.table.home_cores,
        stats.method,
        stats.cluster_cores,
        stats.coalesce,
        stats.peephole,
        stats.table_bytes,
    )


class TestClusteredPlans:
    """Localized optimal scheduling (DP-WRAP) reached through ``plan``."""

    # vm0 fits no core after WFD and C=D fail, so cores 0 and 1 merge.
    CENSUS = [(0.75, 5), (0.4, 20), (0.75, 2), (0.3, 2), (0.65, 50)]

    @pytest.fixture(scope="class")
    def result(self):
        return Planner(uniform(3)).plan(census_of(self.CENSUS))

    def test_escalates_to_a_two_core_cluster(self, result):
        assert result.stats.method == METHOD_CLUSTERED
        assert result.stats.cluster_cores == [0, 1]
        assert result.table.is_split("vm0.vcpu0")

    def test_cluster_guarantees_hold(self, result):
        table = result.table
        for name, spec in result.vcpus.items():
            task = result.task_of(name)
            promised = task.cost * (table.length_ns // task.period)
            assert table.allocated_ns(name) >= promised
            assert table.max_blackout_ns(name) <= spec.latency_ns
        assert table.overlapping_service() == []

    def test_replan_and_fresh_planner_agree(self):
        planner = Planner(uniform(3))
        first = plan_outcome(planner.plan(census_of(self.CENSUS)))
        assert plan_outcome(planner.plan(census_of(self.CENSUS))) == first
        fresh = Planner(uniform(3)).plan(census_of(self.CENSUS))
        assert plan_outcome(fresh) == first

    def test_cluster_at_exactly_full_capacity(self):
        # Total U is exactly 4.0.  Summed as floats, one core's load read
        # 0.9500000000000001 and the cluster's slack 0.29999999999999993,
        # below the leftover demand of 0.3, and planning failed.
        census = [
            (0.3, 50), (0.4, 50), (0.4, 10), (0.75, 10),
            (0.7, 20), (0.6, 50), (0.55, 5), (0.3, 10),
        ]
        result = Planner(uniform(4)).plan(census_of(census))
        assert result.stats.method == METHOD_CLUSTERED
        assert result.stats.cluster_cores == [0, 3]


class TestAssembledIndex:
    """A plan's vCPU index must equal what a ``SystemTable`` built from
    the same cores derives, including the home-core order of split
    vCPUs."""

    @pytest.mark.parametrize(
        "cores, census, method",
        [
            (2, [(0.6, 100)] * 3, METHOD_SEMI_PARTITIONED),
            (3, TestClusteredPlans.CENSUS, METHOD_CLUSTERED),
        ],
    )
    def test_index_matches_rebuilt_index(self, cores, census, method):
        result = Planner(uniform(cores)).plan(census_of(census))
        table = result.table
        derived = SystemTable(length_ns=table.length_ns, cores=dict(table.cores))
        assert result.stats.method == method
        assert any(table.is_split(name) for name in table.vcpu_names)
        assert table.vcpu_names == derived.vcpu_names
        assert table.home_cores == derived.home_cores


class TestRecordGaps:
    """The audit reads a single-home vCPU's worst gap from its core
    record, derived once when the record was materialized: it must equal
    the table's blackout, and a gap past the latency goal still fails
    the plan with the audit's message."""

    @pytest.mark.parametrize(
        "cores, census, knobs",
        [
            (4, [(0.25, 20)] * 8 + [(0.3, 5), (0.125, 100), (0.5, 10)], {}),
            (2, [(0.6, 100)] * 3, {}),
            (2, [(0.3, 5), (0.2, 3), (0.4, 11)] * 2, {"peephole": True}),
            (2, [(0.3, 5), (0.2, 3), (0.4, 11)] * 2, {"coalesce_threshold_ns": 10**5}),
        ],
    )
    def test_record_gap_equals_table_blackout(self, cores, census, knobs):
        planner = Planner(uniform(cores), **knobs)
        result = planner.plan(census_of(census))
        table = result.table
        checked = 0
        for cpu, tasks in result.assignment.items():
            names, _shape, record = edfcore.lookup_core(
                tasks,
                planner.hyperperiod_ns,
                planner.coalesce_threshold_ns,
                planner.peephole,
            )
            for base, name in enumerate(names):
                if table.home_cores.get(name) == [cpu]:
                    assert record.worst_gaps[base] == table.max_blackout_ns(name)
                    checked += 1
        single = [name for name in table.vcpu_names if not table.is_split(name)]
        assert checked == len(single)

    def test_gap_past_the_goal_fails_the_plan(self):
        census = census_of([(0.25, 20)] * 4)
        planner = Planner(uniform(1))
        tasks = planner.plan(census).assignment[0]
        names, _shape, record = edfcore.lookup_core(
            tasks, planner.hyperperiod_ns, planner.coalesce_threshold_ns, False
        )
        base = names.index("vm2.vcpu0")
        gap = 20 * MS + 2 * planner.coalesce_threshold_ns + 1
        saved, record.worst_gaps[base] = record.worst_gaps[base], gap
        try:
            # A fresh planner (no whole-plan memo) binds the cached record.
            with pytest.raises(PlanningError) as raised:
                Planner(uniform(1)).plan(census)
        finally:
            record.worst_gaps[base] = saved
            edfcore.clear_shape_cache()
        assert str(raised.value) == (
            f"vm2.vcpu0: worst-case blackout {gap} ns exceeds latency goal "
            f"{20 * MS} ns"
        )


class TestDedicatedCores:
    def test_full_utilization_vcpu_gets_own_core(self):
        vms = [make_vm("big", 1.0, MS)] + [
            make_vm(f"small{i}", 0.25, 100 * MS) for i in range(4)
        ]
        result = Planner(uniform(2)).plan(vms)
        core = result.table.core_of("big.vcpu0")
        allocations = result.table.cores[core].allocations
        assert len(allocations) == 1
        assert allocations[0].vcpu == "big.vcpu0"
        assert allocations[0].length == result.table.length_ns

    def test_dedicated_vcpu_has_zero_blackout(self):
        vms = [make_vm("big", 1.0, MS)]
        result = Planner(uniform(1)).plan(vms)
        assert result.table.max_blackout_ns("big.vcpu0") == 0


class TestAdmission:
    def test_over_utilization_rejected(self):
        with pytest.raises(AdmissionError):
            plan_uniform(20, 0.25, 100, cores=4)  # 5.0 on 4 cores

    def test_infeasible_latency_rejected(self):
        vms = [make_vm("vm0", 0.25, 1)]  # 1 ns latency goal
        with pytest.raises(AdmissionError):
            Planner(uniform(1)).plan(vms)

    def test_empty_workload_yields_idle_table(self):
        result = Planner(uniform(2)).plan([])
        assert result.table.num_cores == 0 or all(
            not t.allocations for t in result.table.cores.values()
        )


class TestHeterogeneousWorkloads:
    def test_mixed_latency_goals(self):
        vms = [
            make_vm("tight", 0.3, 1 * MS),
            make_vm("medium", 0.3, 30 * MS),
            make_vm("loose", 0.3, 100 * MS),
        ]
        result = Planner(uniform(2)).plan(vms)
        tight = result.task_of("tight.vcpu0")
        loose = result.task_of("loose.vcpu0")
        assert tight.period < loose.period
        assert result.table.max_blackout_ns("tight.vcpu0") <= 1 * MS

    def test_mixed_utilizations(self):
        vms = [
            make_vm("a", 0.7, 50 * MS),
            make_vm("b", 0.5, 50 * MS),
            make_vm("c", 0.4, 50 * MS),
            make_vm("d", 0.3, 50 * MS),
        ]
        result = Planner(uniform(2)).plan(vms)
        for vm in vms:
            name = vm.vcpus[0].name
            assert result.table.utilization_of(name) == pytest.approx(
                vm.vcpus[0].utilization, abs=1e-3
            )

    def test_multi_vcpu_vms(self):
        vms = [make_vm("smp", 0.4, 50 * MS, vcpu_count=4)]
        result = Planner(uniform(2)).plan(vms)
        assert len(result.vcpus) == 4
        for vcpu in vms[0].vcpus:
            assert result.table.utilization_of(vcpu.name) == pytest.approx(
                0.4, abs=1e-3
            )


class TestPlanStats:
    def test_generation_time_recorded(self):
        result = plan_uniform(8, 0.25, 100, cores=2)
        assert result.stats.generation_seconds > 0

    def test_table_bytes_recorded(self):
        result = plan_uniform(8, 0.25, 100, cores=2)
        assert result.stats.table_bytes > 0

    def test_vcpu_and_task_counts(self):
        result = plan_uniform(8, 0.25, 100, cores=2)
        assert result.stats.num_vcpus == 8
        assert result.stats.num_tasks == 8


class TestSliceInvariant:
    def test_slices_lazy_until_install(self):
        # The planner no longer builds slice tables eagerly — the array
        # engine plays back segment columns and the object scheduler
        # builds slices at install time — so a fresh plan has none.
        result = plan_uniform(8, 0.25, 30, cores=2)
        for table in result.table.cores.values():
            assert not table.slices

    def test_slices_built_on_demand_for_all_cores(self):
        result = plan_uniform(8, 0.25, 30, cores=2)
        result.table.build_slices()
        for table in result.table.cores.values():
            assert table.slices
            if table.allocations:
                assert table.slice_len_ns == table.min_allocation_ns()


class TestCoalesceAccounting:
    """``stats.coalesce`` is each core's name-free report merged under the
    core's names, in the plan's core order (dict order included)."""

    #: (utilization, latency ms) per VM: plans on four cores whose
    #: reports move budget on several cores.
    PEEPHOLE_CENSUS = [
        (0.15, 1), (0.2, 1), (0.3, 30), (0.3, 30), (0.15, 1), (0.3, 1), (0.3, 30),
        (0.1, 30), (0.2, 5), (0.1, 10), (0.1, 1), (0.1, 1), (0.3, 5), (0.3, 1),
    ]
    THRESHOLD_CENSUS = [
        (0.15, 10), (0.1, 30), (0.3, 5), (0.1, 1), (0.1, 30), (0.2, 1), (0.15, 10),
        (0.2, 5), (0.1, 10), (0.15, 1), (0.2, 10), (0.15, 5), (0.2, 10), (0.2, 1),
    ]

    @pytest.mark.parametrize(
        "census, knobs",
        [
            (PEEPHOLE_CENSUS, {"peephole": True}),
            (THRESHOLD_CENSUS, {"coalesce_threshold_ns": 30_000}),
        ],
    )
    @pytest.mark.parametrize("warm", [False, True])
    def test_report_is_the_per_core_merge(self, census, knobs, warm):
        vms = [make_vm(f"vm{i:02d}", u, ms * MS) for i, (u, ms) in enumerate(census)]
        edfcore.clear_shape_cache()
        if warm:
            # Every core of the next plan is then a shape-cache hit.
            Planner(uniform(4), **knobs).plan(vms)
        planner = Planner(uniform(4), **knobs)
        result = planner.plan(vms)
        lost, gained, counts = {}, {}, [0, 0]
        for cpu in result.table.cores:
            names, _shape, record = edfcore.lookup_core(
                result.assignment[cpu],
                planner.hyperperiod_ns,
                planner.coalesce_threshold_ns,
                planner.peephole,
            )
            report = record.coalesce
            for k, amount in report.lost_ns.items():
                lost[names[k]] = lost.get(names[k], 0) + amount
            for k, amount in report.gained_ns.items():
                gained[names[k]] = gained.get(names[k], 0) + amount
            counts[0] += report.merged_count
            counts[1] += report.dropped_count
        got = result.stats.coalesce
        assert len(got.lost_ns) >= 2 and got.gained_ns
        assert list(got.lost_ns.items()) == list(lost.items())
        assert list(got.gained_ns.items()) == list(gained.items())
        assert [got.merged_count, got.dropped_count] == counts
