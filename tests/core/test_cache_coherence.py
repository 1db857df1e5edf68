"""Cache coherence: every cache level serves what a cold computation would.

Random censuses on two or three cores reach all three planning methods
(partitioned, C=D semi-partitioned, DP-WRAP clusters), with the peephole
pass off and on:

* a warm planner — shape cache primed by the same shapes under other
  names, a previous plan to keep tables from, and a whole-plan memo
  hit — must produce byte for byte the plan a cold planner produces
  with the shape cache cleared;
* a :class:`TableCache` hit must be the cached plan under a renaming of
  its vCPUs — same tables, same assignment, same vCPU index — and its
  tasks must be the tasks a cold planner derives for the new census.

The explicit examples are two bugs: a cache key that rounded
utilization to ppm (0.333333 and 1/3 shared an entry, so the rebound
tasks were costed from the wrong utilization), and a rebind that turned
C=D pieces into whole tasks in ``assignment``.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import MS, Planner, TableCache, edfcore, make_vm
from repro.core.params import flatten_vcpus
from repro.core.plancache import shape_plan_key
from repro.core.serialize import serialize, serialize_arrays
from repro.errors import AdmissionError, PlanningError
from repro.topology import uniform

UTILIZATIONS = [step / 20 for step in range(4, 16)]  # 0.2 .. 0.75
LATENCIES_MS = (1, 2, 5, 10, 20, 50, 100)
FAILURES = (AdmissionError, PlanningError)

#: The ppm-key bug: three VMs at U 0.333333, then three at U 1/3.
PPM_CASE = (2, [(0.333333, 10)] * 3, [(1 / 3, 10)] * 3)
#: The rebind-assignment bug: three 60% VMs on two cores, one split C=D.
SPLIT_CASE = (2, [(0.6, 10)] * 3, [(0.6, 10)] * 3)
#: A DP-WRAP cluster of cores 0 and 1.
CLUSTER_CASE = (3, [(0.75, 5), (0.4, 20), (0.75, 2), (0.3, 2), (0.65, 50)])


def vms(prefix, pairs):
    return [
        make_vm(f"{prefix}{i}", utilization, latency_ms * MS)
        for i, (utilization, latency_ms) in enumerate(pairs)
    ]


@st.composite
def censuses(draw):
    """Cores and (U, L ms) pairs filled to at most the cores' capacity."""
    cores = draw(st.integers(2, 3))
    drawn = draw(
        st.lists(
            st.tuples(st.sampled_from(UTILIZATIONS), st.sampled_from(LATENCIES_MS)),
            min_size=2,
            max_size=7,
        )
    )
    pairs = []
    load = 0.0
    for utilization, latency_ms in drawn:
        if load + utilization <= cores:
            pairs.append((utilization, latency_ms))
            load += utilization
    return cores, pairs


@st.composite
def shape_twins(draw):
    """A census, and the same reservations in another order (the VMs of
    the second census get other names)."""
    cores, pairs = draw(censuses())
    return cores, pairs, draw(st.permutations(pairs))


def plan_or_error(planner, census):
    try:
        return planner.plan(census), None
    except FAILURES as error:
        return None, error


def assert_same_plan(warm, cold):
    assert warm.stats.method == cold.stats.method
    assert warm.stats.cluster_cores == cold.stats.cluster_cores
    assert warm.stats.coalesce == cold.stats.coalesce
    assert warm.stats.peephole == cold.stats.peephole
    assert warm.stats.table_bytes == cold.stats.table_bytes
    assert warm.table.vcpu_names == cold.table.vcpu_names
    assert warm.table.home_cores == cold.table.home_cores
    assert set(warm.table.cores) == set(cold.table.cores)
    for cpu, core in cold.table.cores.items():
        assert warm.table.cores[cpu].allocations == core.allocations
    assert serialize_arrays(warm.table) == serialize_arrays(cold.table)
    assert serialize(warm.table) == serialize(cold.table)


@settings(max_examples=60, deadline=None)
@given(case=censuses(), peephole=st.booleans())
@example(case=SPLIT_CASE[:2], peephole=False)
@example(case=CLUSTER_CASE, peephole=True)
def test_warm_planner_equals_cold_planner(case, peephole):
    cores, pairs = case
    census = vms("vm", pairs)
    warm = Planner(uniform(cores), peephole=peephole)
    # Prime the shape cache with the same shapes under other names, and
    # leave a previous plan whose unchanged cores the next plan keeps.
    plan_or_error(warm, vms("twin", pairs))
    plan_or_error(warm, census[:-1])
    first, error = plan_or_error(warm, census)
    again, _ = plan_or_error(warm, census)  # a whole-plan memo hit
    edfcore._SHAPE_CACHE.clear()
    cold, cold_error = plan_or_error(Planner(uniform(cores), peephole=peephole), census)
    if cold is None:
        assert first is None and str(error) == str(cold_error)
        return
    assert first is not None and again is not None
    assert_same_plan(first, cold)
    assert_same_plan(again, cold)


def renaming(cached, rebound):
    """The cached -> rebound vCPU bijection, read off the two tables."""
    assert set(rebound.table.cores) == set(cached.table.cores)
    mapping = {}
    for cpu, core in cached.table.cores.items():
        old = core.allocations
        new = rebound.table.cores[cpu].allocations
        assert [(a.start, a.end) for a in new] == [(a.start, a.end) for a in old]
        for before, after in zip(old, new):
            assert mapping.setdefault(before.vcpu, after.vcpu) == after.vcpu
    assert len(set(mapping.values())) == len(mapping)
    return mapping


def renamed_task(task, mapping):
    base, piece, number = task.name.partition("#")
    return (
        mapping[base] + piece + number,
        task.cost,
        task.period,
        task.deadline,
        task.offset,
    )


def task_key(task):
    return (task.name, task.cost, task.period, task.deadline, task.offset)


@settings(max_examples=60, deadline=None)
@given(case=shape_twins(), peephole=st.booleans())
@example(case=PPM_CASE, peephole=False)
@example(case=SPLIT_CASE, peephole=False)
def test_table_cache_hit_is_the_cached_plan_renamed(case, peephole):
    cores, first_pairs, second_pairs = case
    cache = TableCache(Planner(uniform(cores), peephole=peephole))
    try:
        cached = cache.plan(flatten_vcpus(vms("a", first_pairs)))
    except FAILURES:
        return
    second = flatten_vcpus(vms("b", second_pairs))
    result = cache.plan(second)
    cold, _error = plan_or_error(Planner(uniform(cores), peephole=peephole), second)
    if cold is not None:
        assert result.tasks == cold.tasks
    if not cache.stats.hits:
        return
    mapping = renaming(cached, result)
    assert set(mapping) == set(cached.vcpus)
    for old, new in mapping.items():
        before, after = cached.vcpus[old], result.vcpus[new]
        assert (before.utilization, before.latency_ns, before.capped) == (
            after.utilization,
            after.latency_ns,
            after.capped,
        )
    assert result.table.vcpu_names == [mapping[n] for n in cached.table.vcpu_names]
    assert result.table.home_cores == {
        mapping[name]: homes for name, homes in cached.table.home_cores.items()
    }
    assert result.table.as_arrays().keys() == cached.table.as_arrays().keys()
    for cpu, columns in cached.table.as_arrays().items():
        assert [c.tolist() for c in result.table.as_arrays()[cpu]] == [
            c.tolist() for c in columns
        ]
    assert set(result.assignment) == set(cached.assignment)
    for core, tasks in cached.assignment.items():
        assert [task_key(t) for t in result.assignment[core]] == [
            renamed_task(t, mapping) for t in tasks
        ]


def test_ppm_close_utilizations_are_different_shapes():
    first = flatten_vcpus(vms("a", [(0.333333, 10)] * 3))
    exact = flatten_vcpus(vms("b", [(1 / 3, 10)] * 3))
    planner = Planner(uniform(2))
    assert shape_plan_key(planner, first) != shape_plan_key(planner, exact)
    cache = TableCache(planner)
    cache.plan(first)
    result = cache.plan(exact)
    assert cache.stats.hits == 0
    cold = Planner(uniform(2)).plan(exact)
    assert result.tasks == cold.tasks
    assert result.tasks["b0.vcpu0"].cost == 2_445_300


@pytest.mark.parametrize("peephole", [False, True])
def test_rebind_keeps_pieces_in_assignment(peephole):
    cache = TableCache(Planner(uniform(2), peephole=peephole))
    cached = cache.plan(flatten_vcpus(vms("a", [(0.6, 10)] * 3)))
    assert cached.stats.split_tasks == 1
    rebound = cache.plan(flatten_vcpus(vms("b", [(0.6, 10)] * 3)))
    assert cache.stats.hits == 1
    mapping = renaming(cached, rebound)
    for core, tasks in cached.assignment.items():
        assert [task_key(t) for t in rebound.assignment[core]] == [
            renamed_task(t, mapping) for t in tasks
        ]
    pieces = [t for ts in rebound.assignment.values() for t in ts if "#" in t.name]
    assert len(pieces) == 2
    assert all(t.vcpu is rebound.vcpus[t.name.split("#")[0]] for t in pieces)
