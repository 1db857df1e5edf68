"""Tests for the periodic task model and the vCPU -> task mapping."""

import pickle
from dataclasses import replace

import pytest

from repro.core.params import VCpuSpec
from repro.core.periods import candidate_periods
from repro.core.tasks import (
    PeriodicTask,
    max_blackout_of_task,
    total_utilization,
    vcpu_to_task,
    vcpus_to_tasks,
)
from repro.errors import ConfigurationError


def make_task(cost=1_000, period=10_000, **kwargs):
    return PeriodicTask(name="t", cost=cost, period=period, **kwargs)


class TestPeriodicTask:
    def test_implicit_deadline_defaults_to_period(self):
        assert make_task().deadline == 10_000

    def test_utilization(self):
        assert make_task(cost=2_500, period=10_000).utilization == 0.25

    def test_density_uses_deadline(self):
        task = make_task(cost=2_000, period=10_000, deadline=4_000)
        assert task.density == 0.5

    def test_zero_laxity_detection(self):
        assert make_task(cost=3_000, deadline=3_000).is_zero_laxity
        assert not make_task(cost=3_000, deadline=4_000).is_zero_laxity

    def test_rejects_cost_beyond_deadline(self):
        with pytest.raises(ConfigurationError):
            make_task(cost=5_000, deadline=4_000)

    def test_rejects_offset_plus_deadline_beyond_period(self):
        with pytest.raises(ConfigurationError):
            make_task(cost=1_000, deadline=6_000, offset=5_000)

    def test_rejects_nonpositive_cost(self):
        with pytest.raises(ConfigurationError):
            make_task(cost=0)

    def test_rejects_negative_offset(self):
        with pytest.raises(ConfigurationError):
            PeriodicTask(name="t", cost=1, period=10, offset=-1)


def assert_derived(task):
    """The facts a task derives once equal their definitions."""
    assert task.utilization == task.cost / task.period
    assert task.timing == (task.period, task.cost, task.deadline, task.offset)
    assert task.base_name == task.name.split("#")[0]


class TestDerivedFields:
    """``utilization``, ``timing`` and ``base_name`` are derived at
    construction and take no part in equality, hashing or ``repr``."""

    def test_after_construction(self):
        assert_derived(make_task())
        assert_derived(make_task(cost=2_000, period=10_000, deadline=4_000, offset=3_000))
        assert_derived(PeriodicTask(name="vm1.vcpu0#2", cost=5, period=100))

    def test_base_of_an_unsplit_name_is_the_name_itself(self):
        name = "".join(["vm1", ".vcpu0"])  # not an interned literal
        assert PeriodicTask(name=name, cost=5, period=100).base_name is name

    def test_after_replace(self):
        task = make_task(cost=2_000, period=10_000, deadline=4_000, offset=3_000)
        for changes in (
            {"name": "other#1"},
            {"cost": 1_000},
            {"period": 20_000},
            {"deadline": 5_000, "offset": 0},
        ):
            assert_derived(replace(task, **changes))

    def test_after_split(self):
        task = PeriodicTask(name="vm3.vcpu1", cost=6_000, period=10_000)
        piece, remainder = task.split(2_000)
        for part in (piece, remainder, *remainder.split(1_000)):
            assert_derived(part)
            assert part.base_name == "vm3.vcpu1"

    def test_after_pickle_round_trip(self):
        task = PeriodicTask(name="vm2.vcpu0#1", cost=3, period=10, offset=2, deadline=5)
        copy = pickle.loads(pickle.dumps(task))
        assert copy == task
        assert_derived(copy)
        assert (copy.utilization, copy.timing, copy.base_name) == (
            task.utilization,
            task.timing,
            task.base_name,
        )

    def test_equality_hash_and_repr_ignore_them(self):
        task = make_task(cost=2_000, period=10_000)
        twin = make_task(cost=2_000, period=10_000)
        # A copy whose derived fields disagree still equals the original.
        odd = replace(task)
        object.__setattr__(odd, "utilization", -1.0)
        object.__setattr__(odd, "timing", ())
        object.__setattr__(odd, "base_name", "elsewhere")
        assert odd == task == twin
        assert hash(odd) == hash(task) == hash(twin)
        assert repr(odd) == repr(task) == (
            "PeriodicTask(name='t', cost=2000, period=10000, deadline=10000, "
            "offset=0, vcpu=None)"
        )


class TestSplit:
    def test_budget_conserved(self):
        task = make_task(cost=4_000, period=10_000)
        piece, remainder = task.split(1_500)
        assert piece.cost + remainder.cost == 4_000

    def test_piece_is_zero_laxity(self):
        piece, _ = make_task(cost=4_000).split(1_500)
        assert piece.is_zero_laxity

    def test_remainder_released_at_piece_deadline(self):
        task = make_task(cost=4_000, period=10_000)
        piece, remainder = task.split(1_500)
        assert remainder.offset == piece.offset + piece.cost

    def test_remainder_meets_original_deadline(self):
        task = make_task(cost=4_000, period=10_000)
        _, remainder = task.split(1_500)
        assert remainder.offset + remainder.deadline == task.offset + task.deadline

    def test_chained_split_names(self):
        task = PeriodicTask(name="vm0.vcpu0", cost=4_000, period=10_000)
        piece, remainder = task.split(1_000)
        assert piece.name == "vm0.vcpu0#0"
        assert remainder.name == "vm0.vcpu0#1"
        piece2, remainder2 = remainder.split(1_000)
        assert piece2.name == "vm0.vcpu0#1"
        assert remainder2.name == "vm0.vcpu0#2"

    def test_split_bounds_enforced(self):
        task = make_task(cost=4_000)
        with pytest.raises(ConfigurationError):
            task.split(0)
        with pytest.raises(ConfigurationError):
            task.split(4_000)

    def test_vcpu_reference_preserved(self):
        vcpu = VCpuSpec("vm0.vcpu0", 0.4, 20_000_000)
        task = PeriodicTask(name=vcpu.name, cost=4_000, period=10_000, vcpu=vcpu)
        piece, remainder = task.split(1_000)
        assert piece.vcpu is vcpu and remainder.vcpu is vcpu


class TestVcpuToTask:
    def test_cost_floor_keeps_exact_fit_packable(self):
        # Four 25% vCPUs must sum to at most one core even after rounding.
        vcpu = VCpuSpec("v", 0.25, 20_000_000)
        task = vcpu_to_task(vcpu)
        assert 4 * task.cost <= task.period

    def test_utilization_within_one_ns_per_period(self):
        vcpu = VCpuSpec("v", 1 / 3, 50_000_000)
        task = vcpu_to_task(vcpu)
        assert 0 <= vcpu.utilization * task.period - task.cost < 1

    def test_blackout_bound_within_latency_goal(self):
        for latency_ms in (1, 30, 60, 100):
            vcpu = VCpuSpec("v", 0.25, latency_ms * 1_000_000)
            task = vcpu_to_task(vcpu)
            assert max_blackout_of_task(task) <= latency_ms * 1_000_000

    def test_period_is_candidate(self):
        task = vcpu_to_task(VCpuSpec("v", 0.7, 5_000_000))
        assert task.period in candidate_periods()

    def test_back_reference(self):
        vcpu = VCpuSpec("v", 0.25, 20_000_000)
        assert vcpu_to_task(vcpu).vcpu is vcpu

    def test_tiny_utilization_gets_at_least_one_ns(self):
        task = vcpu_to_task(VCpuSpec("v", 1e-9, 300_000_000))
        assert task.cost >= 1


class TestBatchMapping:
    def test_order_preserved(self):
        vcpus = [VCpuSpec(f"v{i}", 0.1 * (i + 1), 50_000_000) for i in range(5)]
        tasks = vcpus_to_tasks(vcpus)
        assert [t.name for t in tasks] == [v.name for v in vcpus]

    def test_total_utilization(self):
        vcpus = [VCpuSpec(f"v{i}", 0.25, 20_000_000) for i in range(8)]
        tasks = vcpus_to_tasks(vcpus)
        assert total_utilization(tasks) == pytest.approx(2.0, abs=1e-6)
