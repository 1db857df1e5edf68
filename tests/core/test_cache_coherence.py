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
  tasks must be the tasks a cold planner derives for the new census;
* a hit rebound against a base plan (the plan serving now) must be the
  cached plan under a renaming that keeps every reservation, serve each
  vCPU its share within its latency goal on one core at a time (read off
  the table, not from the planner's audit), and be the base's own table
  on every core that can keep the base's names.

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
from repro.core.cache import census_signature, rebind_plan
from repro.core.params import flatten_vcpus
from repro.core.periods import HYPERPERIOD_NS, MIN_PERIOD_NS
from repro.core.postprocess import DEFAULT_COALESCE_NS
from repro.core.serialize import serialize
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
    warm_columns, cold_columns = warm.table.as_arrays(), cold.table.as_arrays()
    assert warm_columns.keys() == cold_columns.keys()
    for cpu, columns in cold_columns.items():
        assert [c.tolist() for c in warm_columns[cpu]] == [c.tolist() for c in columns]
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
    edfcore.clear_shape_cache()
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


def reservation(spec):
    return (spec.utilization, spec.latency_ns, spec.capped)


def assert_cached_plan_renamed(cached, result, base=None):
    """``result`` is ``cached`` under a bijection that keeps every
    reservation, and its tasks and assignment follow the names.

    A core kept from ``base`` (the base's own table) may list its tasks
    in the base's packing order: it holds the cached core's schedule up
    to a relabelling, so the same tasks, possibly in another order."""
    mapping = renaming(cached, result)
    assert set(mapping) == set(cached.vcpus)
    assert set(mapping.values()) == set(result.vcpus)
    for old, new in mapping.items():
        assert reservation(cached.vcpus[old]) == reservation(result.vcpus[new])
    assert list(result.vcpus) == sorted(result.vcpus)
    assert result.table.vcpu_names == [mapping[n] for n in cached.table.vcpu_names]
    assert result.table.home_cores == {
        mapping[name]: homes for name, homes in cached.table.home_cores.items()
    }
    assert set(result.tasks) == set(result.vcpus)
    for old, task in cached.tasks.items():
        new = result.tasks[mapping[old]]
        assert task_key(new) == renamed_task(task, mapping)
        assert new.vcpu == result.vcpus[mapping[old]]
    assert set(result.assignment) == set(cached.assignment)
    kept = set()
    if base is not None:
        kept = {
            cpu
            for cpu, core in result.table.cores.items()
            if core is base.table.cores.get(cpu)
        }
    for core, tasks in cached.assignment.items():
        got = [task_key(t) for t in result.assignment[core]]
        expected = [renamed_task(t, mapping) for t in tasks]
        if core in kept:
            got, expected = sorted(got), sorted(expected)
        assert got == expected
        for task in result.assignment[core]:
            assert task.vcpu == result.vcpus[task.name.split("#")[0]]


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
    assert_cached_plan_renamed(cached, result)
    assert result.table.as_arrays().keys() == cached.table.as_arrays().keys()
    for cpu, columns in cached.table.as_arrays().items():
        assert [c.tolist() for c in result.table.as_arrays()[cpu]] == [
            c.tolist() for c in columns
        ]


def test_ppm_close_utilizations_are_different_shapes():
    first = flatten_vcpus(vms("a", [(0.333333, 10)] * 3))
    exact = flatten_vcpus(vms("b", [(1 / 3, 10)] * 3))
    planner = Planner(uniform(2))
    assert census_signature(first) != census_signature(exact)
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


# ----------------------------------------------------------------------
# Rebinding against a base: a hit keeps the committed placement
# ----------------------------------------------------------------------

#: Slack of the share check: coalescing may move up to the threshold per
#: allocation boundary (twice per vCPU), and each job's cost is floored.
SHARE_SLACK_NS = 2 * DEFAULT_COALESCE_NS + HYPERPERIOD_NS // MIN_PERIOD_NS


#: Two cores holding the same tasks in another name order: the planner
#: numbers their segment ids apart, and the rebind must still keep the
#: base core whose schedule the cached core holds.
RELABELLED_CASE = (
    2,
    [(0.55, 1), (0.2, 1), (0.5, 2), (0.5, 5)],
    [(0.55, 1), (0.5, 5), (0.5, 2), (0.2, 1)],
    False,
    [("b0", (0.55, 1)), ("b3", (0.2, 1)), ("b2", (0.5, 2)), ("b1", (0.5, 5))],
)


#: A C=D base: two of its three 60% VMs stay, one is new.
SPLIT_REBIND_CASE = (
    2,
    [(0.6, 10)] * 3,
    [(0.6, 10)] * 3,
    True,
    [("b2", (0.6, 10)), ("b0", (0.6, 10)), ("n2", (0.6, 10))],
)


@st.composite
def rebind_cases(draw):
    """A census, a base plan's census and mode, and a same-shape census
    sharing some names with the base.

    Cores hold partitioned, C=D (split pieces) and DP-WRAP plans, and a
    dedicated core when a 100% VM fits.  The base census has the first
    census's shape under other names; the base is a cache hit of it
    (the cached segments under its names) or a fresh plan of it without
    its last VM.  Each VM of the last census takes an unused base name
    of the same (U, L), an unused base name of another (U, L), or a new
    name.
    """
    cores, pairs = draw(censuses())
    if draw(st.booleans()) and sum(u for u, _l in pairs) + 1 <= cores:
        pairs = pairs + [(1.0, 10)]
    base_pairs = draw(st.permutations(pairs))
    unused = {f"b{i}": pair for i, pair in enumerate(base_pairs)}
    named = []
    for i, pair in enumerate(draw(st.permutations(pairs))):
        choice = draw(st.sampled_from(("same", "other", "new")))
        candidates = sorted(
            name
            for name, held in unused.items()
            if (held == pair) == (choice == "same")
        )
        if choice == "new" or not candidates:
            named.append((f"n{i}", pair))
        else:
            name = draw(st.sampled_from(candidates))
            del unused[name]
            named.append((name, pair))
    return cores, pairs, base_pairs, draw(st.booleans()), named


def census_of(named):
    return flatten_vcpus(
        [make_vm(name, u, latency_ms * MS) for name, (u, latency_ms) in named]
    )


def slots(core):
    """A core's schedule without names: each allocation's times and its
    vCPU numbered by first appearance."""
    number = {}
    return [
        (alloc.start, alloc.end, number.setdefault(alloc.vcpu, len(number)))
        for alloc in core.allocations
    ]


def assert_guarantees(result):
    """Share, blackout and no parallel service, read off the table."""
    table = result.table
    length = table.length_ns
    intervals = {name: [] for name in result.vcpus}
    for core in table.cores.values():
        for alloc in core.allocations:
            intervals[alloc.vcpu].append((alloc.start, alloc.end))
    for name, spec in result.vcpus.items():
        served = sorted(intervals[name])
        assert sum(end - start for start, end in served) + SHARE_SLACK_NS >= (
            spec.utilization * length
        ), name
        for (_s1, e1), (s2, _e2) in zip(served, served[1:]):
            assert s2 >= e1, f"{name} served on two cores at {s2}"
        gaps = [s2 - e1 for (_s1, e1), (s2, _e2) in zip(served, served[1:])]
        gaps.append(served[0][0] + length - served[-1][1])
        assert max(gaps) <= spec.latency_ns + 2 * DEFAULT_COALESCE_NS, name


def keepable(cached, base, census, cpu):
    """Whether the base core at ``cpu`` can keep its names: the cached
    core holds its schedule, every base vCPU on it is in ``census`` with
    its slot's reservation, and no vCPU on either core is split (so no
    other core can claim one of them)."""
    core = cached.table.cores[cpu]
    old = base.table.cores.get(cpu)
    if old is None or slots(core) != slots(old):
        return False
    for mine, theirs in zip(core.allocations, old.allocations):
        spec = census.get(theirs.vcpu)
        if spec is None or reservation(spec) != reservation(cached.vcpus[mine.vcpu]):
            return False
        if cached.table.is_split(mine.vcpu) or base.table.is_split(theirs.vcpu):
            return False
    return True


@settings(max_examples=80, deadline=None)
@given(case=rebind_cases(), peephole=st.booleans())
@example(case=SPLIT_REBIND_CASE, peephole=False)
@example(case=RELABELLED_CASE, peephole=False)
def test_rebind_against_a_base_keeps_its_placement(case, peephole):
    cores, pairs, base_pairs, base_is_hit, named = case
    cache = TableCache(Planner(uniform(cores), peephole=peephole))
    try:
        cached = cache.plan(flatten_vcpus(vms("a", pairs)))
        base_census = flatten_vcpus(vms("b", base_pairs))
        if base_is_hit:
            base = cache.plan(base_census)
        else:
            base = cache.planner.plan(base_census[:-1])
    except FAILURES:
        return
    census = census_of(named)
    hits = cache.stats.hits
    result = cache.plan(census, base=base)
    assert cache.stats.hits == hits + 1
    assert_cached_plan_renamed(cached, result, base)
    assert_guarantees(result)
    specs = {vcpu.name: vcpu for vcpu in census}
    for cpu, core in result.table.cores.items():
        old = base.table.cores.get(cpu)
        if keepable(cached, base, specs, cpu):
            assert core is old
        if old is not None and core.allocations == old.allocations:
            assert core is old
    # The same rebind without a base is today's rename.
    plain = rebind_plan(cached, census)
    assert_cached_plan_renamed(cached, plain)


@pytest.mark.parametrize(
    "case", [SPLIT_CASE[:2], CLUSTER_CASE, (3, [(1.0, 10), (0.5, 20), (0.4, 5)])]
)
def test_rebind_onto_its_own_census_returns_the_base_cores(case):
    cores, pairs = case
    census = flatten_vcpus(vms("vm", pairs))
    plan = Planner(uniform(cores)).plan(census)
    again = rebind_plan(plan, census, base=plan)
    for cpu, core in plan.table.cores.items():
        assert again.table.cores[cpu] is core
    for name, task in plan.tasks.items():
        assert again.tasks[name] is task
    assert again.table.vcpu_names == plan.table.vcpu_names
    assert again.table.home_cores == plan.table.home_cores
