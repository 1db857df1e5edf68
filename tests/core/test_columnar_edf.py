"""Differential suite: the columnar core pipeline against the object one.

:func:`repro.core.edfcore.materialize_core` must produce exactly what the
object pipeline composed here produces — :func:`simulate_edf`,
:func:`validate_against_tasks`, :func:`optimize_core`, the piece rename
and :func:`coalesce` — for random task sets: the table, its segment
columns, the coalesce and peephole reports, and the audit aggregates the
planner reads.  Infeasible sets must raise the same error in both.  A
DP-WRAP cluster core, which enters the pipeline with its layout, must
finish the same both ways too.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import edfcore
from repro.core.edf import simulate_edf
from repro.core.edfcore import base_names_of, lookup_core, materialize_core
from repro.core.optimal import dp_wrap_schedule
from repro.core.params import MS, make_vm
from repro.core.planner import Planner
from repro.core.peephole import optimize_core
from repro.core.postprocess import CoalesceReport, coalesce
from repro.core.table import Allocation, CoreTable, validate_against_tasks
from repro.core.tasks import PeriodicTask
from repro.errors import ConfigurationError, PlanningError
from repro.topology import uniform

HORIZON = 1_200_000
PERIODS = [100_000, 120_000, 150_000, 200_000, 240_000, 300_000, 400_000, 600_000, HORIZON]
THRESHOLDS = [0, 10_000, 50_000]


def piece_names(bases):
    """Unique task names over base vCPUs ``v0``, ``v1``, ...: a first
    piece may be plain (``v0``), later pieces carry ``#k``."""
    seen = {}
    names = []
    for base, plain in bases:
        count = seen.get(base, 0)
        seen[base] = count + 1
        if count == 0 and plain:
            names.append(f"v{base}")
        else:
            names.append(f"v{base}#{count}")
    return names


@st.composite
def task_sets(draw):
    """1-6 constrained-deadline tasks with offsets, some of them pieces;
    a dense set (costs of half their deadline or more) is mostly
    infeasible."""
    count = draw(st.integers(1, 6))
    dense = draw(st.booleans())
    bases = draw(
        st.lists(
            st.tuples(st.integers(0, 2), st.booleans()), min_size=count, max_size=count
        )
    )
    tasks = []
    for name in piece_names(bases):
        period = draw(st.sampled_from(PERIODS))
        offset = draw(st.integers(0, period // 2))
        deadline = draw(st.integers(1, period - offset))
        percent = draw(st.integers(50, 100) if dense else st.integers(1, 100 // count))
        cost = max(1, deadline * percent // 100)
        tasks.append(PeriodicTask(name, cost, period, deadline, offset))
    return tasks


def object_pipeline(tasks, horizon, threshold_ns, peephole, cpu=0):
    """The reference: EDF, validation, peephole, rename, coalesce."""
    table = simulate_edf(tasks, horizon, cpu=cpu)
    validate_against_tasks(table, tasks)
    peephole_report = None
    if peephole:
        table, peephole_report = optimize_core(table, tasks)
    return finish(table, threshold_ns) + (peephole_report,)


def finish(table, threshold_ns):
    """Piece names -> base names, then coalesce."""
    renamed = CoreTable(
        cpu=table.cpu,
        length_ns=table.length_ns,
        allocations=[
            Allocation(a.start, a.end, a.vcpu.split("#")[0])
            for a in table.allocations
        ],
    )
    return coalesce(renamed, threshold_ns)


def aggregates(table):
    """Per-vCPU audit aggregates by one scan of the finished allocations:
    first start, total service, and the worst service gap with the
    wrap-around gap included, in first-allocation order."""
    result = {}
    for alloc in table.allocations:
        entry = result.get(alloc.vcpu)
        if entry is None:
            result[alloc.vcpu] = [alloc.start, alloc.length, alloc.end, 0]
        else:
            entry[3] = max(entry[3], alloc.start - entry[2])
            entry[1] += alloc.length
            entry[2] = alloc.end
    return [
        (name, first, total, max(gap, first + table.length_ns - last))
        for name, (first, total, last, gap) in result.items()
    ]


def assert_matches(record, tasks, reference, cpu=0):
    table, coalesce_report, peephole_report = reference
    names = base_names_of(tasks)[0]
    bound = record.bind(cpu, names)
    assert bound.table.allocations == table.allocations
    assert bound.table.length_ns == table.length_ns
    named = CoalesceReport()
    named.merge(record.coalesce, bound.names)
    assert named == coalesce_report
    assert record.peephole == peephole_report
    ids = {name: index for index, name in enumerate(names)}
    ours = bound.table.as_arrays(ids.__getitem__)
    theirs = table.as_arrays(ids.__getitem__)
    assert [column.tolist() for column in ours] == [column.tolist() for column in theirs]
    assert bound.table.min_allocation_ns() == min(
        (a.length for a in table.allocations), default=None
    )
    served = record.segments.served
    assert [
        (names[base], start, record.allocated[base], record.worst_gaps[base])
        for base, start in served.items()
    ] == aggregates(table)
    # A base the core never serves: no service, a gap of two cycles.
    assert all(
        (record.allocated[base], record.worst_gaps[base]) == (0, 2 * table.length_ns)
        for base in range(len(names))
        if base not in served
    )


@settings(max_examples=400, deadline=None)
@given(
    tasks=task_sets(),
    threshold_ns=st.sampled_from(THRESHOLDS),
    peephole=st.booleans(),
)
def test_columnar_pipeline_equals_object_pipeline(tasks, threshold_ns, peephole):
    # Start cold so every stage runs, not a shape-cache hit.
    edfcore.clear_shape_cache()
    try:
        reference = object_pipeline(tasks, HORIZON, threshold_ns, peephole, cpu=3)
    except (PlanningError, ConfigurationError) as error:
        with pytest.raises(type(error)) as raised:
            materialize_core(tasks, HORIZON, threshold_ns, peephole, cpu=3)
        assert str(raised.value) == str(error)
        return
    record = materialize_core(tasks, HORIZON, threshold_ns, peephole, cpu=3)
    assert_matches(record, tasks, reference, cpu=3)


@settings(max_examples=100, deadline=None)
@given(
    tasks=task_sets(),
    threshold_ns=st.sampled_from(THRESHOLDS),
    peephole=st.booleans(),
)
def test_shape_hit_rebinds_to_the_renamed_reference(tasks, threshold_ns, peephole):
    # The same shape under other names is served from the shape cache
    # and must equal the object pipeline run under those names.
    try:
        first = materialize_core(tasks, HORIZON, threshold_ns, peephole)
    except (PlanningError, ConfigurationError):
        return
    renamed = [
        PeriodicTask("w" + t.name, t.cost, t.period, t.deadline, t.offset)
        for t in tasks
    ]
    again = materialize_core(renamed, HORIZON, threshold_ns, peephole)
    assert again is first
    reference = object_pipeline(renamed, HORIZON, threshold_ns, peephole)
    assert_matches(again, renamed, reference)


def reference_shape(tasks, horizon, threshold_ns, peephole):
    """A core's base-vCPU names and shape key, by their definitions: each
    name before its ``#`` numbered by first appearance, and each task's
    (period, cost, deadline, offset)."""
    base_names = []
    base_of = []
    for task in tasks:
        base = task.name.split("#")[0]
        if base not in base_names:
            base_names.append(base)
        base_of.append(base_names.index(base))
    timing = tuple(
        (task.period, task.cost, task.deadline or task.period, task.offset)
        for task in tasks
    )
    return base_names, (horizon, threshold_ns, peephole, tuple(base_of), timing)


@settings(max_examples=200, deadline=None)
@given(
    tasks=task_sets(),
    threshold_ns=st.sampled_from(THRESHOLDS),
    peephole=st.booleans(),
)
def test_shape_key_equals_reference_formula(tasks, threshold_ns, peephole):
    names, shape, _record = lookup_core(tasks, HORIZON, threshold_ns, peephole)
    assert (names, shape) == reference_shape(tasks, HORIZON, threshold_ns, peephole)


@pytest.mark.parametrize(
    "names",
    [
        ["v0", "v1", "v2"],  # distinct bases: task i is base i
        ["v0#0", "v1", "v0#1"],  # two pieces of one vCPU
        ["v2#1", "v1"],  # a lone piece
    ],
)
def test_shape_key_of_distinct_and_shared_bases(names):
    tasks = [
        PeriodicTask(name, 10_000 * (k + 1), 100_000, deadline=50_000 + k, offset=k)
        for k, name in enumerate(names)
    ]
    got = lookup_core(tasks, HORIZON, 0, False)[:2]
    assert got == reference_shape(tasks, HORIZON, 0, False)


@pytest.mark.parametrize(
    "cores, census, peephole",
    [
        (4, [(0.25, 20)] * 10 + [(0.125, 100)] * 6, False),  # partitioned
        (2, [(0.6, 100)] * 3, True),  # semi-partitioned: split pieces
    ],
)
def test_every_planned_core_shape_equals_reference(cores, census, peephole):
    vms = [make_vm(f"vm{i}", u, ms * MS) for i, (u, ms) in enumerate(census)]
    planner = Planner(uniform(cores), peephole=peephole)
    result = planner.plan(vms)
    for tasks in result.assignment.values():
        key = (planner.hyperperiod_ns, planner.coalesce_threshold_ns, peephole)
        assert lookup_core(tasks, *key)[:2] == reference_shape(tasks, *key)


@st.composite
def clusters(draw):
    """Implicit-deadline tasks for a 2-3 core cluster, total U <= cores."""
    cores = draw(st.integers(2, 3))
    count = draw(st.integers(2, 6))
    bases = draw(
        st.lists(
            st.tuples(st.integers(0, 3), st.booleans()), min_size=count, max_size=count
        )
    )
    tasks = []
    load = Fraction(0)
    for name in piece_names(bases):
        period = draw(st.sampled_from(PERIODS))
        cost = draw(st.integers(1, period))
        if load + Fraction(cost, period) > cores:
            break
        load += Fraction(cost, period)
        tasks.append(PeriodicTask(name, cost, period))
    return tasks, list(range(cores))


@settings(max_examples=200, deadline=None)
@given(case=clusters(), threshold_ns=st.sampled_from(THRESHOLDS))
def test_cluster_layout_finishes_the_same_both_ways(case, threshold_ns):
    tasks, cores = case
    try:
        layouts = dp_wrap_schedule(tasks, cores, HORIZON)
    except PlanningError:
        return  # DP-WRAP's own rounding rejection, before either finish
    index_of = {task.name: index for index, task in enumerate(tasks)}
    for cpu, layout in layouts.items():
        _starts, ends, ids = layout.as_arrays(index_of.__getitem__)
        record = materialize_core(
            tasks, HORIZON, threshold_ns, cpu=cpu, layout=(ends, ids)
        )
        assert_matches(record, tasks, finish(layout, threshold_ns) + (None,), cpu=cpu)
